// Burst (packet-train) semantics of the module interface, PR 8: batch
// split/truncation at flow-control boundaries, single-call train releases,
// and FIFO delivery through the burst engine's stall queues.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dacapo/module.h"
#include "dacapo/modules.h"
#include "dacapo/runtime.h"

namespace cool::dacapo {
namespace {

// Records every forward, distinguishing batch calls from per-packet calls
// so the tests can assert "this train crossed in ONE hop".
class RecordPort : public ModulePort {
 public:
  explicit RecordPort(PacketBudget& budget) : budget_(budget) {}

  void ForwardUp(PacketPtr pkt) override { up.push_back(std::move(pkt)); }
  void ForwardDown(PacketPtr pkt) override { down.push_back(std::move(pkt)); }
  void ForwardUpBatch(std::vector<PacketPtr>& pkts) override {
    ++up_batch_calls;
    for (auto& p : pkts) up.push_back(std::move(p));
    pkts.clear();
  }
  void ForwardDownBatch(std::vector<PacketPtr>& pkts) override {
    ++down_batch_calls;
    for (auto& p : pkts) down.push_back(std::move(p));
    pkts.clear();
  }
  void ControlUp(ControlMsg msg) override { control.push_back(std::move(msg)); }
  void ControlDown(ControlMsg msg) override {
    control.push_back(std::move(msg));
  }
  PacketBudget& budget() override { return budget_; }
  std::string_view channel_name() const override { return "test"; }

  std::vector<PacketPtr> up;
  std::vector<PacketPtr> down;
  std::vector<ControlMsg> control;
  int up_batch_calls = 0;
  int down_batch_calls = 0;

 private:
  PacketBudget& budget_;
};

// Room for `packets` packets of up to 256 octets.
std::shared_ptr<PacketBudget> TestBudget(std::size_t packets) {
  return std::make_shared<PacketBudget>(
      packets * (Packet::kHeadroom + 256 + Packet::kTailroom));
}

PacketPtr Make(PacketBudget& budget, std::initializer_list<std::uint8_t> b) {
  auto p = budget.Make(std::vector<std::uint8_t>(b));
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

PacketPtr MakeSized(PacketBudget& budget, std::size_t n, std::uint8_t fill) {
  auto p = budget.Make(std::vector<std::uint8_t>(n, fill));
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

void PutU32Le(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t GetU32Le(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

// Builds a packet carrying the ARQ wire image [type:1][seq:4] + payload.
PacketPtr MakeArq(PacketBudget& budget, std::uint8_t type, std::uint32_t seq,
                  std::uint8_t payload_byte) {
  PacketPtr p = Make(budget, {payload_byte});
  std::uint8_t header[5];
  header[0] = type;
  PutU32Le(header + 1, seq);
  EXPECT_TRUE(p->PushHeader(header).ok());
  return p;
}

// --- truncation at flow-control boundaries ---------------------------------

TEST(BurstTest, DefaultShimTruncatesWhenModuleNotReady) {
  // IrqModule keeps the default per-packet shim and allows one outstanding
  // packet, so a down-train must truncate after the first slot: the
  // leftover stays in the batch, FIFO order intact, for the engine to
  // stall.
  auto budget = TestBudget(16);
  RecordPort port(*budget);
  IrqModule irq;

  PacketBatch batch;
  for (std::uint8_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(batch.PushBack(Make(*budget, {i})));
  }
  irq.ProcessBurst(Direction::kDown, batch, port);

  EXPECT_EQ(port.down.size(), 1u);  // the transmitted clone
  EXPECT_FALSE(irq.ReadyForDown());
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i]->Data().back(), static_cast<std::uint8_t>(i + 1));
  }
}

TEST(BurstTest, GoBackNDownBurstTruncatesAtWindow) {
  auto budget = TestBudget(64);
  RecordPort port(*budget);
  GoBackNModule::Options opts;
  opts.window = 8;
  GoBackNModule gbn(opts);

  PacketBatch batch;
  for (std::uint8_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(batch.PushBack(Make(*budget, {i})));
  }
  gbn.ProcessBurst(Direction::kDown, batch, port);

  EXPECT_EQ(port.down.size(), 8u);  // one clone per window slot
  EXPECT_FALSE(gbn.ReadyForDown());
  ASSERT_EQ(batch.size(), 4u);
  // Leftover keeps FIFO order: payloads 8..11.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i]->Data().back(), static_cast<std::uint8_t>(i + 8));
  }
  // Transmitted clones carry in-order sequence numbers 0..7.
  for (std::size_t i = 0; i < port.down.size(); ++i) {
    const auto data = port.down[i]->Data();
    ASSERT_GE(data.size(), 5u);
    EXPECT_EQ(data[0], 0);  // kArqData
    EXPECT_EQ(GetU32Le(data.data() + 1), static_cast<std::uint32_t>(i));
  }
}

TEST(BurstTest, GoBackNUpBurstAnswersWithOneCumulativeAck) {
  auto budget = TestBudget(64);
  RecordPort port(*budget);
  GoBackNModule gbn;

  PacketBatch batch;
  for (std::uint32_t seq = 0; seq < 8; ++seq) {
    ASSERT_TRUE(batch.PushBack(
        MakeArq(*budget, /*type=*/0, seq, static_cast<std::uint8_t>(seq))));
  }
  gbn.ProcessBurst(Direction::kUp, batch, port);

  EXPECT_EQ(batch.size(), 0u);  // up bursts are consumed in full
  ASSERT_EQ(port.up.size(), 8u);
  for (std::size_t i = 0; i < port.up.size(); ++i) {
    EXPECT_EQ(port.up[i]->Data().back(), static_cast<std::uint8_t>(i));
  }
  // The whole 8-packet train is answered by exactly ONE cumulative ACK.
  ASSERT_EQ(port.down.size(), 1u);
  const auto ack = port.down[0]->Data();
  ASSERT_EQ(ack.size(), 5u);
  EXPECT_EQ(ack[0], 1);  // kArqAck
  EXPECT_EQ(GetU32Le(ack.data() + 1), 8u);
}

TEST(BurstTest, RateLimiterBurstHoldsFirstUnaffordablePacket) {
  auto budget = TestBudget(16);
  RecordPort port(*budget);
  RateLimiterModule::Options opts;
  opts.rate_bytes_per_sec = 1;  // effectively no refill during the test
  opts.burst_bytes = 160;       // affords two 64-octet packets
  RateLimiterModule limiter(opts);

  PacketBatch batch;
  for (std::uint8_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(batch.PushBack(MakeSized(*budget, 64, i)));
  }
  limiter.ProcessBurst(Direction::kDown, batch, port);

  EXPECT_EQ(port.down.size(), 2u);
  EXPECT_FALSE(limiter.ReadyForDown());  // third packet held for tokens
  ASSERT_EQ(batch.size(), 2u);           // fourth and fifth left for stall
  EXPECT_EQ(batch[0]->Data().back(), 3);
  EXPECT_EQ(batch[1]->Data().back(), 4);
}

// --- single-hop train releases ----------------------------------------------

TEST(BurstTest, SequencerDownBurstStampsTrainInOneHop) {
  auto budget = TestBudget(16);
  RecordPort port(*budget);
  SequencerModule seq;

  PacketBatch batch;
  for (std::uint8_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(batch.PushBack(Make(*budget, {i})));
  }
  seq.ProcessBurst(Direction::kDown, batch, port);

  EXPECT_EQ(batch.size(), 0u);
  EXPECT_EQ(port.down_batch_calls, 1);
  ASSERT_EQ(port.down.size(), 5u);
  for (std::size_t i = 0; i < port.down.size(); ++i) {
    const auto data = port.down[i]->Data();
    ASSERT_GE(data.size(), 4u);
    EXPECT_EQ(GetU32Le(data.data()), static_cast<std::uint32_t>(i));
  }
}

TEST(BurstTest, SequencerUpBurstReleasesInOrderRunAsOneTrain) {
  auto budget = TestBudget(16);
  RecordPort port(*budget);
  SequencerModule seq;

  auto stamped = [&](std::uint32_t n) {
    PacketPtr p = Make(*budget, {static_cast<std::uint8_t>(n)});
    std::uint8_t header[4];
    PutU32Le(header, n);
    EXPECT_TRUE(p->PushHeader(header).ok());
    return p;
  };

  // Seqs {0, 1, 3}: the in-order run {0, 1} releases as one train, 3 is
  // buffered behind the gap.
  PacketBatch first;
  ASSERT_TRUE(first.PushBack(stamped(0)));
  ASSERT_TRUE(first.PushBack(stamped(1)));
  ASSERT_TRUE(first.PushBack(stamped(3)));
  seq.ProcessBurst(Direction::kUp, first, port);

  EXPECT_EQ(port.up_batch_calls, 1);
  ASSERT_EQ(port.up.size(), 2u);
  EXPECT_EQ(port.up[0]->Data().back(), 0);
  EXPECT_EQ(port.up[1]->Data().back(), 1);

  // Seq 2 fills the gap: {2, 3} release together, again as one train.
  PacketBatch second;
  ASSERT_TRUE(second.PushBack(stamped(2)));
  seq.ProcessBurst(Direction::kUp, second, port);

  EXPECT_EQ(port.up_batch_calls, 2);
  ASSERT_EQ(port.up.size(), 4u);
  EXPECT_EQ(port.up[2]->Data().back(), 2);
  EXPECT_EQ(port.up[3]->Data().back(), 3);
}

// --- burst engine integration -----------------------------------------------

// Bottom "T" stand-in: loops every down packet straight back up.
class LoopbackBottomModule : public Module {
 public:
  std::string_view name() const override { return "loopback_bottom"; }
  void HandleData(Direction dir, PacketPtr pkt, ModulePort& port) override {
    if (dir == Direction::kDown) port.ForwardUp(std::move(pkt));
  }
};

TEST(BurstTest, ChainPreservesFifoAcrossInjectedTrains) {
  // 96 distinct payloads injected as trains through a transforming graph:
  // every message must come back, in order, bit-exact.
  auto budget = TestBudget(128);
  std::vector<std::unique_ptr<Module>> mods;
  auto a = std::make_unique<AppAModule>();
  AppAModule* a_raw = a.get();
  mods.push_back(std::move(a));
  mods.push_back(
      std::make_unique<ChecksumModule>(ChecksumModule::Algorithm::kCrc32));
  mods.push_back(std::make_unique<XorCipherModule>(0xFEEDFACE));
  mods.push_back(std::make_unique<LoopbackBottomModule>());

  ModuleChain chain("t", std::move(mods), budget);
  ASSERT_TRUE(chain.Start().ok());

  constexpr int kMessages = 96;
  int sent = 0;
  while (sent < kMessages) {
    std::vector<PacketPtr> train;
    for (int i = 0; i < 32 && sent < kMessages; ++i, ++sent) {
      auto p = budget->Make(std::vector<std::uint8_t>{
          static_cast<std::uint8_t>(sent), static_cast<std::uint8_t>(sent >> 8),
          0xAB});
      ASSERT_TRUE(p.ok());
      train.push_back(std::move(p).value());
    }
    ASSERT_TRUE(chain.InjectDownBatch(train));
  }

  for (int i = 0; i < kMessages; ++i) {
    auto msg = a_raw->Receive(seconds(5));
    ASSERT_TRUE(msg.ok()) << "message " << i;
    ASSERT_EQ(msg->size(), 3u);
    const int id = (*msg)[0] | (*msg)[1] << 8;
    EXPECT_EQ(id, i);  // FIFO survived burst walks both ways
    EXPECT_EQ((*msg)[2], 0xAB);
  }
  chain.Stop();
}

TEST(BurstTest, ChainDeliversStalledTrainTailThroughRateLimiter) {
  // The injected train exceeds the limiter's bucket, so the engine must
  // stall the tail and drain it on ticks — nothing may be lost or
  // reordered across the stall boundary.
  auto budget = TestBudget(128);
  std::vector<std::unique_ptr<Module>> mods;
  auto a = std::make_unique<AppAModule>();
  AppAModule* a_raw = a.get();
  mods.push_back(std::move(a));
  RateLimiterModule::Options opts;
  opts.rate_bytes_per_sec = 512 * 1024;
  opts.burst_bytes = 256;  // a few packets, then the train stalls
  mods.push_back(std::make_unique<RateLimiterModule>(opts));
  mods.push_back(std::make_unique<LoopbackBottomModule>());

  ModuleChain chain("t", std::move(mods), budget);
  ASSERT_TRUE(chain.Start().ok());

  constexpr int kMessages = 64;
  int sent = 0;
  while (sent < kMessages) {
    std::vector<PacketPtr> train;
    for (int i = 0; i < 32 && sent < kMessages; ++i, ++sent) {
      auto p = budget->Make(
          std::vector<std::uint8_t>(32, static_cast<std::uint8_t>(sent)));
      ASSERT_TRUE(p.ok());
      train.push_back(std::move(p).value());
    }
    ASSERT_TRUE(chain.InjectDownBatch(train));
  }

  for (int i = 0; i < kMessages; ++i) {
    auto msg = a_raw->Receive(seconds(5));
    ASSERT_TRUE(msg.ok()) << "message " << i;
    EXPECT_EQ(msg->front(), static_cast<std::uint8_t>(i));
  }
  chain.Stop();
}

TEST(BurstTest, FragmentTrainLargerThanOneBurstReassembles) {
  // A 250-octet message over an 8-octet MTU yields a fragment train longer
  // than PacketBatch::kCapacity, forcing the fragmenter to emit multiple
  // bursts for one message — reassembly must still produce the exact
  // original.
  auto budget = TestBudget(128);
  std::vector<std::unique_ptr<Module>> mods;
  auto a = std::make_unique<AppAModule>();
  AppAModule* a_raw = a.get();
  mods.push_back(std::move(a));
  mods.push_back(std::make_unique<FragmentModule>(8));
  mods.push_back(std::make_unique<LoopbackBottomModule>());

  ModuleChain chain("t", std::move(mods), budget);
  ASSERT_TRUE(chain.Start().ok());

  std::vector<std::uint8_t> message(250);
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  auto p = budget->Make(message);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(chain.InjectDown(std::move(p).value()));

  auto got = a_raw->Receive(seconds(5));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, message);
  chain.Stop();
}

}  // namespace
}  // namespace cool::dacapo

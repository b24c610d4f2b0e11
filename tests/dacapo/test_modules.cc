// Unit tests for the layer-C protocol modules, driven synchronously
// through a fake port (no threads): each test hands packets to
// HandleData/OnTick and inspects what the module forwarded.
#include "dacapo/modules.h"

#include <gtest/gtest.h>

#include <deque>
#include <thread>

namespace cool::dacapo {
namespace {

class FakePort : public ModulePort {
 public:
  explicit FakePort(PacketBudget* budget) : budget_(budget) {}

  void ForwardUp(PacketPtr pkt) override { up.push_back(std::move(pkt)); }
  void ForwardDown(PacketPtr pkt) override { down.push_back(std::move(pkt)); }
  void ControlUp(ControlMsg msg) override {
    control_up.push_back(std::move(msg));
  }
  void ControlDown(ControlMsg msg) override {
    control_down.push_back(std::move(msg));
  }
  PacketBudget& budget() override { return *budget_; }
  std::string_view channel_name() const override { return "test"; }

  PacketPtr TakeDown() {
    EXPECT_FALSE(down.empty());
    PacketPtr p = std::move(down.front());
    down.pop_front();
    return p;
  }
  PacketPtr TakeUp() {
    EXPECT_FALSE(up.empty());
    PacketPtr p = std::move(up.front());
    up.pop_front();
    return p;
  }

  std::deque<PacketPtr> up;
  std::deque<PacketPtr> down;
  std::vector<ControlMsg> control_up;
  std::vector<ControlMsg> control_down;

 private:
  PacketBudget* budget_;
};

class ModuleTestBase : public ::testing::Test {
 protected:
  PacketPtr Make(std::initializer_list<std::uint8_t> bytes) {
    auto p = budget_->Make(std::vector<std::uint8_t>(bytes));
    EXPECT_TRUE(p.ok());
    return std::move(p).value();
  }

  std::shared_ptr<PacketBudget> budget_ =
      std::make_shared<PacketBudget>(1 << 20);
  FakePort port_{budget_.get()};
};

// --- DummyModule -------------------------------------------------------------

using DummyModuleTest = ModuleTestBase;

TEST_F(DummyModuleTest, ForwardsBothDirectionsUnchanged) {
  DummyModule dummy;
  dummy.HandleData(Direction::kDown, Make({1, 2}), port_);
  dummy.HandleData(Direction::kUp, Make({3}), port_);
  ASSERT_EQ(port_.down.size(), 1u);
  ASSERT_EQ(port_.up.size(), 1u);
  EXPECT_EQ(port_.down.front()->Data()[0], 1);
  EXPECT_EQ(port_.up.front()->Data()[0], 3);
}

// --- ChecksumModule ----------------------------------------------------------

using ChecksumModuleTest = ModuleTestBase;

TEST_F(ChecksumModuleTest, RoundTripAllAlgorithms) {
  for (const auto algo :
       {ChecksumModule::Algorithm::kParity, ChecksumModule::Algorithm::kCrc16,
        ChecksumModule::Algorithm::kCrc32}) {
    ChecksumModule tx(algo);
    ChecksumModule rx(algo);
    tx.HandleData(Direction::kDown, Make({10, 20, 30}), port_);
    PacketPtr wire = port_.TakeDown();
    EXPECT_GT(wire->size(), 3u);  // trailer added
    rx.HandleData(Direction::kUp, std::move(wire), port_);
    PacketPtr delivered = port_.TakeUp();
    ASSERT_EQ(delivered->size(), 3u);  // trailer stripped
    EXPECT_EQ(delivered->Data()[1], 20);
  }
}

TEST_F(ChecksumModuleTest, CorruptPacketDroppedNotForwarded) {
  ChecksumModule tx(ChecksumModule::Algorithm::kCrc32);
  ChecksumModule rx(ChecksumModule::Algorithm::kCrc32);
  tx.HandleData(Direction::kDown, Make({1, 2, 3}), port_);
  PacketPtr wire = port_.TakeDown();
  wire->Data()[1] ^= 0xFF;  // corrupt in flight
  rx.HandleData(Direction::kUp, std::move(wire), port_);
  EXPECT_TRUE(port_.up.empty());
  EXPECT_EQ(rx.corrupted_dropped(), 1u);
}

TEST_F(ChecksumModuleTest, TruncatedPacketDropped) {
  ChecksumModule rx(ChecksumModule::Algorithm::kCrc32);
  rx.HandleData(Direction::kUp, Make({1, 2}), port_);  // < trailer size
  EXPECT_TRUE(port_.up.empty());
  EXPECT_EQ(rx.corrupted_dropped(), 1u);
}

TEST_F(ChecksumModuleTest, MismatchedAlgorithmsDetected) {
  ChecksumModule tx(ChecksumModule::Algorithm::kCrc16);
  ChecksumModule rx(ChecksumModule::Algorithm::kCrc32);
  tx.HandleData(Direction::kDown, Make({1, 2, 3, 4, 5}), port_);
  rx.HandleData(Direction::kUp, port_.TakeDown(), port_);
  EXPECT_TRUE(port_.up.empty());
}

// --- XorCipherModule ---------------------------------------------------------

using XorCipherModuleTest = ModuleTestBase;

TEST_F(XorCipherModuleTest, EncryptsOnWireDecryptsOnDelivery) {
  XorCipherModule tx(0x1234);
  XorCipherModule rx(0x1234);
  tx.HandleData(Direction::kDown, Make({'s', 'e', 'c'}), port_);
  PacketPtr wire = port_.TakeDown();
  EXPECT_NE(wire->Data()[0], 's');  // ciphertext differs
  rx.HandleData(Direction::kUp, std::move(wire), port_);
  PacketPtr delivered = port_.TakeUp();
  EXPECT_EQ(delivered->Data()[0], 's');
}

TEST_F(XorCipherModuleTest, WrongKeyYieldsGarbage) {
  XorCipherModule tx(1);
  XorCipherModule rx(2);
  tx.HandleData(Direction::kDown, Make({'s', 'e', 'c'}), port_);
  rx.HandleData(Direction::kUp, port_.TakeDown(), port_);
  EXPECT_NE(port_.TakeUp()->Data()[0], 's');
}

// --- SequencerModule ---------------------------------------------------------

using SequencerModuleTest = ModuleTestBase;

TEST_F(SequencerModuleTest, InOrderPassThrough) {
  SequencerModule tx;
  SequencerModule rx;
  for (std::uint8_t i = 0; i < 3; ++i) {
    tx.HandleData(Direction::kDown, Make({i}), port_);
    rx.HandleData(Direction::kUp, port_.TakeDown(), port_);
    EXPECT_EQ(port_.TakeUp()->Data()[0], i);
  }
  EXPECT_EQ(rx.reordered(), 0u);
}

TEST_F(SequencerModuleTest, ReordersOutOfOrderArrivals) {
  SequencerModule tx;
  SequencerModule rx;
  tx.HandleData(Direction::kDown, Make({0}), port_);
  tx.HandleData(Direction::kDown, Make({1}), port_);
  tx.HandleData(Direction::kDown, Make({2}), port_);
  PacketPtr w0 = port_.TakeDown();
  PacketPtr w1 = port_.TakeDown();
  PacketPtr w2 = port_.TakeDown();

  rx.HandleData(Direction::kUp, std::move(w2), port_);  // early
  EXPECT_TRUE(port_.up.empty());
  rx.HandleData(Direction::kUp, std::move(w0), port_);
  ASSERT_EQ(port_.up.size(), 1u);
  rx.HandleData(Direction::kUp, std::move(w1), port_);
  // 1 arrives -> releases 1 and buffered 2.
  ASSERT_EQ(port_.up.size(), 3u);
  EXPECT_EQ(port_.up[0]->Data()[0], 0);
  EXPECT_EQ(port_.up[1]->Data()[0], 1);
  EXPECT_EQ(port_.up[2]->Data()[0], 2);
  EXPECT_EQ(rx.reordered(), 1u);
}

TEST_F(SequencerModuleTest, DuplicatesDropped) {
  SequencerModule tx;
  SequencerModule rx;
  tx.HandleData(Direction::kDown, Make({7}), port_);
  PacketPtr wire = port_.TakeDown();
  auto dup = budget_->Clone(*wire);
  ASSERT_TRUE(dup.ok());
  rx.HandleData(Direction::kUp, std::move(wire), port_);
  rx.HandleData(Direction::kUp, std::move(dup).value(), port_);
  EXPECT_EQ(port_.up.size(), 1u);
}

TEST_F(SequencerModuleTest, GapSkippedOnTimeout) {
  SequencerModule tx(/*gap_timeout=*/milliseconds(10));
  SequencerModule rx(/*gap_timeout=*/milliseconds(10));
  tx.HandleData(Direction::kDown, Make({0}), port_);
  tx.HandleData(Direction::kDown, Make({1}), port_);
  (void)port_.TakeDown();  // packet 0 lost in the network
  PacketPtr w1 = port_.TakeDown();
  rx.HandleData(Direction::kUp, std::move(w1), port_);
  EXPECT_TRUE(port_.up.empty());  // waiting for 0
  std::this_thread::sleep_for(milliseconds(20));
  rx.OnTick(port_);
  ASSERT_EQ(port_.up.size(), 1u);  // gave up on 0, released 1
  EXPECT_EQ(port_.up[0]->Data()[0], 1);
  EXPECT_EQ(rx.skipped(), 1u);
}

// --- IrqModule -----------------------------------------------------------------

using IrqModuleTest = ModuleTestBase;

TEST_F(IrqModuleTest, StopAndWaitWindowOfOne) {
  IrqModule sender;
  EXPECT_TRUE(sender.ReadyForDown());
  sender.HandleData(Direction::kDown, Make({1}), port_);
  EXPECT_EQ(port_.down.size(), 1u);  // transmitted
  EXPECT_FALSE(sender.ReadyForDown());  // nothing more until ACK
}

TEST_F(IrqModuleTest, DataAckRoundTrip) {
  IrqModule sender;
  IrqModule receiver;
  sender.HandleData(Direction::kDown, Make({42}), port_);
  PacketPtr wire = port_.TakeDown();

  receiver.HandleData(Direction::kUp, std::move(wire), port_);
  // Receiver delivered the payload up and sent an ACK down.
  ASSERT_EQ(port_.up.size(), 1u);
  EXPECT_EQ(port_.up.front()->Data()[0], 42);
  ASSERT_EQ(port_.down.size(), 1u);

  PacketPtr ack = port_.TakeDown();
  sender.HandleData(Direction::kUp, std::move(ack), port_);
  EXPECT_TRUE(sender.ReadyForDown());  // window reopened
}

TEST_F(IrqModuleTest, DuplicateDataReAckedNotRedelivered) {
  IrqModule sender;
  IrqModule receiver;
  sender.HandleData(Direction::kDown, Make({1}), port_);
  PacketPtr wire = port_.TakeDown();
  auto dup = budget_->Clone(*wire);
  ASSERT_TRUE(dup.ok());

  receiver.HandleData(Direction::kUp, std::move(wire), port_);
  (void)port_.TakeUp();
  (void)port_.TakeDown();  // first ACK
  receiver.HandleData(Direction::kUp, std::move(dup).value(), port_);
  EXPECT_TRUE(port_.up.empty());       // no duplicate delivery
  EXPECT_EQ(port_.down.size(), 1u);    // but re-ACKed
}

TEST_F(IrqModuleTest, RetransmitsOnTimeout) {
  IrqModule::Options opts;
  opts.rto = milliseconds(5);
  IrqModule sender(opts);
  sender.HandleData(Direction::kDown, Make({1}), port_);
  (void)port_.TakeDown();  // first transmission lost
  std::this_thread::sleep_for(milliseconds(10));
  sender.OnTick(port_);
  EXPECT_EQ(port_.down.size(), 1u);  // retransmitted
  EXPECT_EQ(sender.retransmissions(), 1u);
}

TEST_F(IrqModuleTest, GivesUpAfterMaxRetries) {
  IrqModule::Options opts;
  opts.rto = milliseconds(1);
  opts.max_retries = 2;
  IrqModule sender(opts);
  sender.HandleData(Direction::kDown, Make({1}), port_);
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(milliseconds(3));
    sender.OnTick(port_);
  }
  EXPECT_TRUE(sender.ReadyForDown());  // gave up, window open again
  ASSERT_FALSE(port_.control_up.empty());
  EXPECT_EQ(port_.control_up.front().kind, ControlMsg::Kind::kError);
}

TEST_F(IrqModuleTest, StaleAckIgnored) {
  IrqModule sender;
  IrqModule receiver;
  // Exchange one packet completely.
  sender.HandleData(Direction::kDown, Make({1}), port_);
  receiver.HandleData(Direction::kUp, port_.TakeDown(), port_);
  (void)port_.TakeUp();
  PacketPtr ack0 = port_.TakeDown();
  auto stale = budget_->Clone(*ack0);
  ASSERT_TRUE(stale.ok());
  sender.HandleData(Direction::kUp, std::move(ack0), port_);

  // Second packet in flight; a stale ACK for #0 must not open the window.
  sender.HandleData(Direction::kDown, Make({2}), port_);
  (void)port_.TakeDown();
  sender.HandleData(Direction::kUp, std::move(stale).value(), port_);
  EXPECT_FALSE(sender.ReadyForDown());
}

// --- GoBackNModule --------------------------------------------------------------

using GoBackNModuleTest = ModuleTestBase;

TEST_F(GoBackNModuleTest, WindowAllowsMultipleInFlight) {
  GoBackNModule::Options opts;
  opts.window = 3;
  GoBackNModule sender(opts);
  for (std::uint8_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(sender.ReadyForDown());
    sender.HandleData(Direction::kDown, Make({i}), port_);
  }
  EXPECT_FALSE(sender.ReadyForDown());  // window full
  EXPECT_EQ(port_.down.size(), 3u);
}

TEST_F(GoBackNModuleTest, CumulativeAckSlidesWindow) {
  GoBackNModule::Options opts;
  opts.window = 2;
  GoBackNModule sender(opts);
  GoBackNModule receiver(opts);

  sender.HandleData(Direction::kDown, Make({0}), port_);
  sender.HandleData(Direction::kDown, Make({1}), port_);
  PacketPtr w0 = port_.TakeDown();
  PacketPtr w1 = port_.TakeDown();

  receiver.HandleData(Direction::kUp, std::move(w0), port_);
  receiver.HandleData(Direction::kUp, std::move(w1), port_);
  ASSERT_EQ(port_.up.size(), 2u);
  ASSERT_EQ(port_.down.size(), 2u);  // two cumulative ACKs
  (void)port_.TakeDown();
  PacketPtr ack = port_.TakeDown();  // the later one covers both
  sender.HandleData(Direction::kUp, std::move(ack), port_);
  EXPECT_TRUE(sender.ReadyForDown());
}

TEST_F(GoBackNModuleTest, OutOfOrderDiscardedAndDupAcked) {
  GoBackNModule sender;
  GoBackNModule receiver;
  sender.HandleData(Direction::kDown, Make({0}), port_);
  sender.HandleData(Direction::kDown, Make({1}), port_);
  (void)port_.TakeDown();  // packet 0 lost
  PacketPtr w1 = port_.TakeDown();
  receiver.HandleData(Direction::kUp, std::move(w1), port_);
  EXPECT_TRUE(port_.up.empty());      // go-back-N: not buffered
  EXPECT_EQ(port_.down.size(), 1u);   // duplicate ACK telling "still at 0"
}

TEST_F(GoBackNModuleTest, TimeoutRetransmitsWholeWindow) {
  GoBackNModule::Options opts;
  opts.window = 4;
  opts.rto = milliseconds(5);
  GoBackNModule sender(opts);
  for (std::uint8_t i = 0; i < 3; ++i) {
    sender.HandleData(Direction::kDown, Make({i}), port_);
  }
  port_.down.clear();  // all lost
  std::this_thread::sleep_for(milliseconds(10));
  sender.OnTick(port_);
  EXPECT_EQ(port_.down.size(), 3u);  // full window retransmitted
  EXPECT_EQ(sender.retransmissions(), 3u);
}

TEST_F(GoBackNModuleTest, EndToEndOverLossyDelivery) {
  // Drop every third wire packet; the module pair must still deliver all
  // payloads in order via retransmission.
  GoBackNModule::Options opts;
  opts.window = 4;
  opts.rto = milliseconds(2);
  GoBackNModule sender(opts);
  GoBackNModule receiver(opts);

  std::vector<std::uint8_t> delivered;
  int wire_count = 0;
  int to_send = 0;
  const int kTotal = 10;

  for (int round = 0; round < 400 && delivered.size() < kTotal; ++round) {
    if (to_send < kTotal && sender.ReadyForDown()) {
      sender.HandleData(Direction::kDown,
                        Make({static_cast<std::uint8_t>(to_send)}), port_);
      ++to_send;
    }
    // Move "wire" packets: sender.down -> receiver, receiver.down -> sender.
    while (!port_.down.empty()) {
      PacketPtr p = port_.TakeDown();
      if (++wire_count % 3 == 0) continue;  // lost
      // Heuristic: ACKs come from the receiver; DATA from the sender. The
      // first octet of the ARQ header distinguishes them.
      if (p->Data()[0] == 0) {
        receiver.HandleData(Direction::kUp, std::move(p), port_);
      } else {
        sender.HandleData(Direction::kUp, std::move(p), port_);
      }
    }
    while (!port_.up.empty()) {
      delivered.push_back(port_.TakeUp()->Data()[0]);
    }
    std::this_thread::sleep_for(milliseconds(1));
    sender.OnTick(port_);
  }

  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)], i);
  }
}

// --- RateLimiterModule -----------------------------------------------------------

using RateLimiterModuleTest = ModuleTestBase;

TEST_F(RateLimiterModuleTest, WithinBurstPassesImmediately) {
  RateLimiterModule::Options opts;
  opts.rate_bytes_per_sec = 1000;
  opts.burst_bytes = 100;
  RateLimiterModule limiter(opts);
  limiter.HandleData(Direction::kDown, Make({1, 2, 3}), port_);
  EXPECT_EQ(port_.down.size(), 1u);
  EXPECT_TRUE(limiter.ReadyForDown());
}

TEST_F(RateLimiterModuleTest, HoldsWhenTokensExhausted) {
  RateLimiterModule::Options opts;
  // Low rate so the bucket needs ~40ms to refill: sanitizer builds can
  // spend whole milliseconds between the two HandleData calls, and the
  // second packet must still find the bucket empty.
  opts.rate_bytes_per_sec = 100;
  opts.burst_bytes = 4;
  RateLimiterModule limiter(opts);
  limiter.HandleData(Direction::kDown, Make({1, 2, 3, 4}), port_);
  EXPECT_EQ(port_.down.size(), 1u);
  limiter.HandleData(Direction::kDown, Make({5, 6, 7, 8}), port_);
  EXPECT_EQ(port_.down.size(), 1u);  // held
  EXPECT_FALSE(limiter.ReadyForDown());
  std::this_thread::sleep_for(milliseconds(60));  // refills > 4 tokens
  limiter.OnTick(port_);
  EXPECT_EQ(port_.down.size(), 2u);
  EXPECT_TRUE(limiter.ReadyForDown());
}

TEST_F(RateLimiterModuleTest, UpTrafficUnthrottled) {
  RateLimiterModule::Options opts;
  opts.rate_bytes_per_sec = 1;
  opts.burst_bytes = 1;
  RateLimiterModule limiter(opts);
  limiter.HandleData(Direction::kUp, Make({1, 2, 3}), port_);
  EXPECT_EQ(port_.up.size(), 1u);
}

// --- FragmentModule -----------------------------------------------------------------

class FragmentModuleTest : public ModuleTestBase {
 protected:
  PacketPtr MakeBytes(std::size_t n, std::uint8_t seed = 0) {
    std::vector<std::uint8_t> data(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = static_cast<std::uint8_t>(i + seed);
    }
    auto p = budget_->Make(data);
    EXPECT_TRUE(p.ok());
    return std::move(p).value();
  }
};

TEST_F(FragmentModuleTest, SmallPacketSingleFragmentRoundTrip) {
  FragmentModule tx(16);
  FragmentModule rx(16);
  tx.HandleData(Direction::kDown, MakeBytes(10), port_);
  ASSERT_EQ(port_.down.size(), 1u);
  rx.HandleData(Direction::kUp, port_.TakeDown(), port_);
  ASSERT_EQ(port_.up.size(), 1u);
  EXPECT_EQ(port_.TakeUp()->size(), 10u);
  EXPECT_EQ(tx.fragmented(), 0u);  // no split needed
}

TEST_F(FragmentModuleTest, LargeMessageSplitsAndReassembles) {
  FragmentModule tx(16);
  FragmentModule rx(16);
  tx.HandleData(Direction::kDown, MakeBytes(50), port_);
  EXPECT_EQ(port_.down.size(), 4u);  // 16+16+16+2
  EXPECT_EQ(tx.fragmented(), 1u);
  while (!port_.down.empty()) {
    rx.HandleData(Direction::kUp, port_.TakeDown(), port_);
  }
  ASSERT_EQ(port_.up.size(), 1u);
  PacketPtr whole = port_.TakeUp();
  ASSERT_EQ(whole->size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(whole->Data()[i], static_cast<std::uint8_t>(i)) << i;
  }
}

TEST_F(FragmentModuleTest, BackToBackMessagesKeepBoundaries) {
  FragmentModule tx(8);
  FragmentModule rx(8);
  tx.HandleData(Direction::kDown, MakeBytes(20, 0), port_);
  tx.HandleData(Direction::kDown, MakeBytes(12, 100), port_);
  while (!port_.down.empty()) {
    rx.HandleData(Direction::kUp, port_.TakeDown(), port_);
  }
  ASSERT_EQ(port_.up.size(), 2u);
  EXPECT_EQ(port_.up[0]->size(), 20u);
  EXPECT_EQ(port_.up[1]->size(), 12u);
  EXPECT_EQ(port_.up[1]->Data()[0], 100);
}

TEST_F(FragmentModuleTest, MissingHeadFragmentDropsTail) {
  FragmentModule tx(8);
  FragmentModule rx(8);
  tx.HandleData(Direction::kDown, MakeBytes(20), port_);
  (void)port_.TakeDown();  // head lost
  while (!port_.down.empty()) {
    rx.HandleData(Direction::kUp, port_.TakeDown(), port_);
  }
  EXPECT_TRUE(port_.up.empty());
  EXPECT_GE(rx.dropped(), 1u);
}

TEST_F(FragmentModuleTest, TornMessageRestartsOnNextHead) {
  FragmentModule tx(8);
  FragmentModule rx(8);
  tx.HandleData(Direction::kDown, MakeBytes(20, 0), port_);
  // Deliver only the head of message 0, then a complete message 1.
  PacketPtr head0 = port_.TakeDown();
  port_.down.clear();  // rest of message 0 lost
  rx.HandleData(Direction::kUp, std::move(head0), port_);

  tx.HandleData(Direction::kDown, MakeBytes(12, 50), port_);
  while (!port_.down.empty()) {
    rx.HandleData(Direction::kUp, port_.TakeDown(), port_);
  }
  ASSERT_EQ(port_.up.size(), 1u);  // only message 1 delivered
  EXPECT_EQ(port_.up[0]->size(), 12u);
  EXPECT_EQ(port_.up[0]->Data()[0], 50);
  EXPECT_GE(rx.dropped(), 1u);
}

// --- AppAModule -------------------------------------------------------------------

using AppAModuleTest = ModuleTestBase;

TEST_F(AppAModuleTest, CountsTxAndForwards) {
  AppAModule a;
  a.HandleData(Direction::kDown, Make({1, 2, 3}), port_);
  EXPECT_EQ(port_.down.size(), 1u);
  const auto stats = a.snapshot();
  EXPECT_EQ(stats.packets_tx, 1u);
  EXPECT_EQ(stats.bytes_tx, 3u);
}

TEST_F(AppAModuleTest, QueueModeDeliversToApplication) {
  AppAModule a(AppAModule::DeliveryMode::kQueue);
  a.HandleData(Direction::kUp, Make({9, 8}), port_);
  auto msg = a.Receive(milliseconds(100));
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(*msg, (std::vector<std::uint8_t>{9, 8}));
}

TEST_F(AppAModuleTest, CountOnlyModeReleasesBuffers) {
  AppAModule a(AppAModule::DeliveryMode::kCountOnly);
  a.HandleData(Direction::kUp, Make({1}), port_);
  a.HandleData(Direction::kUp, Make({2, 3}), port_);
  const auto stats = a.snapshot();
  EXPECT_EQ(stats.packets_rx, 2u);
  EXPECT_EQ(stats.bytes_rx, 3u);
  // Buffers released at once (the paper's measuring A-module).
  EXPECT_EQ(budget_->in_flight(), 0u);
  // Nothing queued for the app.
  EXPECT_EQ(a.Receive(milliseconds(10)).status().code(),
            ErrorCode::kDeadlineExceeded);
}

TEST_F(AppAModuleTest, TracksFirstAndLastArrival) {
  AppAModule a(AppAModule::DeliveryMode::kCountOnly);
  a.HandleData(Direction::kUp, Make({1}), port_);
  std::this_thread::sleep_for(milliseconds(10));
  a.HandleData(Direction::kUp, Make({2}), port_);
  const auto stats = a.snapshot();
  EXPECT_GE(stats.last_rx - stats.first_rx, milliseconds(8));
}

TEST_F(AppAModuleTest, ResetStatsClearsCounters) {
  AppAModule a(AppAModule::DeliveryMode::kCountOnly);
  a.HandleData(Direction::kUp, Make({1}), port_);
  a.ResetStats();
  EXPECT_EQ(a.snapshot().packets_rx, 0u);
}

TEST_F(AppAModuleTest, ReceiveAfterStopReportsClosed) {
  AppAModule a(AppAModule::DeliveryMode::kQueue);
  a.OnStop(port_);
  EXPECT_EQ(a.Receive(milliseconds(10)).status().code(),
            ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace cool::dacapo

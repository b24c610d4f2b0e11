// ModuleChain runtime: thread-per-module wiring, injection at both ends,
// control routing, shutdown.

#include "dacapo/runtime.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/blocking_queue.h"
#include "common/thread.h"
#include "dacapo/modules.h"

namespace cool::dacapo {
namespace {

// Bottom "T" stand-in: loops every down packet straight back up, as if the
// peer echoed it instantly.
class LoopbackBottomModule : public Module {
 public:
  std::string_view name() const override { return "loopback_bottom"; }
  void HandleData(Direction dir, PacketPtr pkt, ModulePort& port) override {
    if (dir == Direction::kDown) port.ForwardUp(std::move(pkt));
  }
};

// Bottom module that counts what reaches it (packets leaving the node).
class SinkBottomModule : public Module {
 public:
  explicit SinkBottomModule(BlockingQueue<std::vector<std::uint8_t>>* out)
      : out_(out) {}
  std::string_view name() const override { return "sink_bottom"; }
  void HandleData(Direction dir, PacketPtr pkt, ModulePort&) override {
    if (dir != Direction::kDown) return;
    const auto data = pkt->Data();
    out_->Push(std::vector<std::uint8_t>(data.begin(), data.end()));
  }

 private:
  BlockingQueue<std::vector<std::uint8_t>>* out_;
};

std::shared_ptr<PacketBudget> MakeBudget() {
  return std::make_shared<PacketBudget>(1 << 20);
}

PacketPtr Make(PacketBudget& budget, std::initializer_list<std::uint8_t> b) {
  auto p = budget.Make(std::vector<std::uint8_t>(b));
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

TEST(ModuleChainTest, EmptyChainRefusesToStart) {
  ModuleChain chain("t", {}, MakeBudget());
  EXPECT_EQ(chain.Start().code(), ErrorCode::kFailedPrecondition);
}

TEST(ModuleChainTest, DoubleStartFails) {
  std::vector<std::unique_ptr<Module>> mods;
  mods.push_back(std::make_unique<DummyModule>());
  ModuleChain chain("t", std::move(mods), MakeBudget());
  ASSERT_TRUE(chain.Start().ok());
  EXPECT_EQ(chain.Start().code(), ErrorCode::kFailedPrecondition);
  chain.Stop();
}

TEST(ModuleChainTest, DownTraffigTraversesAllModules) {
  auto budget = MakeBudget();
  BlockingQueue<std::vector<std::uint8_t>> sink;
  std::vector<std::unique_ptr<Module>> mods;
  auto a = std::make_unique<AppAModule>();
  AppAModule* a_raw = a.get();
  mods.push_back(std::move(a));
  for (int i = 0; i < 5; ++i) mods.push_back(std::make_unique<DummyModule>());
  mods.push_back(std::make_unique<SinkBottomModule>(&sink));

  ModuleChain chain("t", std::move(mods), budget);
  ASSERT_TRUE(chain.Start().ok());
  ASSERT_TRUE(chain.InjectDown(Make(*budget, {1, 2, 3})));

  auto got = sink.PopFor(seconds(2));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(a_raw->snapshot().packets_tx, 1u);
  chain.Stop();
}

TEST(ModuleChainTest, UpTrafficReachesAModule) {
  auto budget = MakeBudget();
  std::vector<std::unique_ptr<Module>> mods;
  auto a = std::make_unique<AppAModule>();
  AppAModule* a_raw = a.get();
  mods.push_back(std::move(a));
  mods.push_back(std::make_unique<DummyModule>());

  ModuleChain chain("t", std::move(mods), budget);
  ASSERT_TRUE(chain.Start().ok());
  chain.InjectUp(Make(*budget, {5, 6}));

  auto msg = a_raw->Receive(seconds(2));
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(*msg, (std::vector<std::uint8_t>{5, 6}));
  chain.Stop();
}

TEST(ModuleChainTest, ChecksumPairAcrossLoopback) {
  // A -> crc32 -> loopback-bottom: the same module verifies what it
  // generated (exercises real threaded hand-off both directions).
  auto budget = MakeBudget();
  std::vector<std::unique_ptr<Module>> mods;
  auto a = std::make_unique<AppAModule>();
  AppAModule* a_raw = a.get();
  mods.push_back(std::move(a));
  mods.push_back(
      std::make_unique<ChecksumModule>(ChecksumModule::Algorithm::kCrc32));
  mods.push_back(std::make_unique<LoopbackBottomModule>());

  ModuleChain chain("t", std::move(mods), budget);
  ASSERT_TRUE(chain.Start().ok());
  ASSERT_TRUE(chain.InjectDown(Make(*budget, {'a', 'b'})));
  auto msg = a_raw->Receive(seconds(2));
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(*msg, (std::vector<std::uint8_t>{'a', 'b'}));
  chain.Stop();
}

TEST(ModuleChainTest, ControlErrorReachesSink) {
  auto budget = MakeBudget();
  std::vector<std::unique_ptr<Module>> mods;
  mods.push_back(std::make_unique<DummyModule>());
  ModuleChain chain("t", std::move(mods), budget);

  BlockingQueue<ControlMsg> control;
  chain.SetControlSink([&](ControlMsg msg) { control.Push(std::move(msg)); });
  ASSERT_TRUE(chain.Start().ok());

  ControlMsg err;
  err.kind = ControlMsg::Kind::kError;
  err.text = "boom";
  chain.InjectControlUp(err);

  auto got = control.PopFor(seconds(2));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->text, "boom");
  chain.Stop();
}

TEST(ModuleChainTest, UpSinkReceivesPastTopModule) {
  auto budget = MakeBudget();
  std::vector<std::unique_ptr<Module>> mods;
  mods.push_back(std::make_unique<DummyModule>());  // top forwards up
  ModuleChain chain("t", std::move(mods), budget);

  BlockingQueue<std::vector<std::uint8_t>> sink;
  chain.SetUpSink([&](PacketPtr pkt) {
    const auto data = pkt->Data();
    sink.Push(std::vector<std::uint8_t>(data.begin(), data.end()));
  });
  ASSERT_TRUE(chain.Start().ok());
  chain.InjectUp(Make(*budget, {0xEE}));
  auto got = sink.PopFor(seconds(2));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ((*got)[0], 0xEE);
  chain.Stop();
}

TEST(ModuleChainTest, StopIsIdempotentAndInjectFailsAfter) {
  auto budget = MakeBudget();
  std::vector<std::unique_ptr<Module>> mods;
  mods.push_back(std::make_unique<DummyModule>());
  ModuleChain chain("t", std::move(mods), budget);
  ASSERT_TRUE(chain.Start().ok());
  chain.Stop();
  chain.Stop();
  EXPECT_FALSE(chain.InjectDown(Make(*budget, {1})));
}

TEST(ModuleChainTest, ManyPacketsThroughDeepChainInOrder) {
  // Room for 256 two-octet packets: the producer meets backpressure.
  auto budget = std::make_shared<PacketBudget>(
      256 * (Packet::kHeadroom + 2 + Packet::kTailroom));
  BlockingQueue<std::vector<std::uint8_t>> sink;
  std::vector<std::unique_ptr<Module>> mods;
  mods.push_back(std::make_unique<AppAModule>());
  for (int i = 0; i < 20; ++i) {
    mods.push_back(std::make_unique<DummyModule>());
  }
  mods.push_back(std::make_unique<SinkBottomModule>(&sink));
  ModuleChain chain("deep", std::move(mods), budget);
  ASSERT_TRUE(chain.Start().ok());

  constexpr int kCount = 200;
  cool::Thread producer([&] {
    for (int i = 0; i < kCount; ++i) {
      auto p = budget->Make(std::vector<std::uint8_t>{
          static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8)});
      while (!p.ok()) {  // budget backpressure
        std::this_thread::sleep_for(microseconds(100));
        p = budget->Make(std::vector<std::uint8_t>{
            static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8)});
      }
      ASSERT_TRUE(chain.InjectDown(std::move(p).value()));
    }
  });

  for (int i = 0; i < kCount; ++i) {
    auto got = sink.PopFor(seconds(5));
    ASSERT_TRUE(got.has_value()) << "packet " << i << " missing";
    const int value = (*got)[0] | (*got)[1] << 8;
    EXPECT_EQ(value, i);  // FIFO through the whole chain
  }
  producer.join();
  chain.Stop();
}

TEST(ModuleChainTest, DestructorStopsCleanly) {
  auto budget = MakeBudget();
  std::vector<std::unique_ptr<Module>> mods;
  mods.push_back(std::make_unique<AppAModule>());
  mods.push_back(std::make_unique<DummyModule>());
  auto chain = std::make_unique<ModuleChain>("t", std::move(mods), budget);
  ASSERT_TRUE(chain->Start().ok());
  chain->InjectUp(Make(*budget, {1}));
  chain.reset();  // must join all threads without hanging
  SUCCEED();
}

}  // namespace
}  // namespace cool::dacapo

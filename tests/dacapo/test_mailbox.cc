#include "dacapo/mailbox.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/thread.h"

namespace cool::dacapo {
namespace {

PacketPtr MakePacket(PacketBudget& budget, std::uint8_t tag) {
  auto p = budget.Make(std::vector<std::uint8_t>{tag});
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

class MailboxTest : public ::testing::Test {
 protected:
  std::shared_ptr<PacketBudget> budget_ =
      std::make_shared<PacketBudget>(1 << 20);
};

TEST_F(MailboxTest, TimeoutWhenEmpty) {
  Mailbox mb;
  const auto r = mb.PopNext(true, milliseconds(20));
  EXPECT_EQ(r.kind, Mailbox::PopResult::Kind::kTimeout);
}

TEST_F(MailboxTest, ControlBeatsData) {
  Mailbox mb;
  mb.PushUp(MakePacket(*budget_, 1));
  ASSERT_TRUE(mb.PushDown(MakePacket(*budget_, 2)));
  ControlMsg msg;
  msg.kind = ControlMsg::Kind::kError;
  msg.text = "x";
  mb.PushControl(Direction::kUp, msg);

  auto r = mb.PopNext(true, milliseconds(10));
  ASSERT_EQ(r.kind, Mailbox::PopResult::Kind::kControl);
  EXPECT_EQ(r.control.text, "x");
  EXPECT_EQ(r.control_dir, Direction::kUp);
}

TEST_F(MailboxTest, UpBeatsDown) {
  Mailbox mb;
  ASSERT_TRUE(mb.PushDown(MakePacket(*budget_, 2)));
  mb.PushUp(MakePacket(*budget_, 1));

  auto r1 = mb.PopNext(true, milliseconds(10));
  ASSERT_EQ(r1.kind, Mailbox::PopResult::Kind::kData);
  EXPECT_EQ(r1.data.dir, Direction::kUp);
  EXPECT_EQ(r1.data.pkt->Data()[0], 1);

  auto r2 = mb.PopNext(true, milliseconds(10));
  ASSERT_EQ(r2.kind, Mailbox::PopResult::Kind::kData);
  EXPECT_EQ(r2.data.dir, Direction::kDown);
}

TEST_F(MailboxTest, DownGatedByAcceptFlag) {
  Mailbox mb;
  ASSERT_TRUE(mb.PushDown(MakePacket(*budget_, 1)));
  // accept_down = false: the down packet is invisible.
  auto r = mb.PopNext(false, milliseconds(20));
  EXPECT_EQ(r.kind, Mailbox::PopResult::Kind::kTimeout);
  // ...but up traffic still flows.
  mb.PushUp(MakePacket(*budget_, 2));
  r = mb.PopNext(false, milliseconds(20));
  ASSERT_EQ(r.kind, Mailbox::PopResult::Kind::kData);
  EXPECT_EQ(r.data.dir, Direction::kUp);
  // Re-enabling down releases the queued packet.
  r = mb.PopNext(true, milliseconds(20));
  ASSERT_EQ(r.kind, Mailbox::PopResult::Kind::kData);
  EXPECT_EQ(r.data.dir, Direction::kDown);
}

TEST_F(MailboxTest, BoundedDownBlocksAndBackpressures) {
  Mailbox mb(/*down_capacity=*/2);
  ASSERT_TRUE(mb.PushDown(MakePacket(*budget_, 1)));
  ASSERT_TRUE(mb.PushDown(MakePacket(*budget_, 2)));
  EXPECT_EQ(mb.down_size(), 2u);

  std::atomic<bool> third_pushed{false};
  cool::Thread pusher([&] {
    ASSERT_TRUE(mb.PushDown(MakePacket(*budget_, 3)));
    third_pushed = true;
  });
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_FALSE(third_pushed.load());  // full: pusher is blocked

  auto r = mb.PopNext(true, milliseconds(10));
  ASSERT_EQ(r.kind, Mailbox::PopResult::Kind::kData);
  pusher.join();
  EXPECT_TRUE(third_pushed.load());
}

TEST_F(MailboxTest, CloseWakesBlockedPusher) {
  Mailbox mb(1);
  ASSERT_TRUE(mb.PushDown(MakePacket(*budget_, 1)));
  cool::Thread pusher([&] {
    EXPECT_FALSE(mb.PushDown(MakePacket(*budget_, 2)));
  });
  std::this_thread::sleep_for(milliseconds(20));
  mb.Close();
  pusher.join();
}

TEST_F(MailboxTest, CloseReportsClosedAndDropsQueued) {
  Mailbox mb;
  ASSERT_TRUE(mb.PushDown(MakePacket(*budget_, 1)));
  mb.Close();
  EXPECT_EQ(mb.PopNext(true, milliseconds(10)).kind,
            Mailbox::PopResult::Kind::kClosed);
  // Dropped packets credited the budget.
  EXPECT_EQ(budget_->in_flight(), 0u);
}

TEST_F(MailboxTest, PushAfterCloseIsNoOp) {
  Mailbox mb;
  mb.Close();
  EXPECT_FALSE(mb.PushDown(MakePacket(*budget_, 1)));
  mb.PushUp(MakePacket(*budget_, 2));        // silently dropped
  mb.PushControl(Direction::kUp, ControlMsg{});
  EXPECT_EQ(mb.PopNext(true, milliseconds(5)).kind,
            Mailbox::PopResult::Kind::kClosed);
  EXPECT_EQ(budget_->in_flight(), 0u);
}

TEST_F(MailboxTest, FifoWithinEachQueue) {
  Mailbox mb;
  for (std::uint8_t i = 0; i < 5; ++i) mb.PushUp(MakePacket(*budget_, i));
  for (std::uint8_t i = 0; i < 5; ++i) {
    auto r = mb.PopNext(true, milliseconds(5));
    ASSERT_EQ(r.kind, Mailbox::PopResult::Kind::kData);
    EXPECT_EQ(r.data.pkt->Data()[0], i);
  }
}

TEST_F(MailboxTest, WakesSleepingPopper) {
  Mailbox mb;
  cool::Thread popper([&] {
    auto r = mb.PopNext(true, seconds(5));
    ASSERT_EQ(r.kind, Mailbox::PopResult::Kind::kData);
    EXPECT_EQ(r.data.pkt->Data()[0], 42);
  });
  std::this_thread::sleep_for(milliseconds(20));
  mb.PushUp(MakePacket(*budget_, 42));
  popper.join();
}

}  // namespace
}  // namespace cool::dacapo

// Batch operations of the Mailbox (PushUpBatch / PushDownBatch / PopBatch):
// priority ordering, FIFO within a class, backpressure accounting, close
// behaviour, and a producer/consumer stress pairing batched pushes with a
// batched popper (run under TSan in CI).
#include "dacapo/mailbox.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/thread.h"

namespace cool::dacapo {
namespace {

PacketPtr MakePacket(PacketBudget& budget, std::uint8_t tag) {
  auto p = budget.Make(std::vector<std::uint8_t>{tag});
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

ControlMsg MakeControl(std::string text) {
  ControlMsg msg;
  msg.kind = ControlMsg::Kind::kError;
  msg.text = std::move(text);
  return msg;
}

class MailboxBatchTest : public ::testing::Test {
 protected:
  std::shared_ptr<PacketBudget> budget_ =
      std::make_shared<PacketBudget>(1 << 20);
};

TEST_F(MailboxBatchTest, EmptyTimesOut) {
  Mailbox mb;
  std::vector<Mailbox::PopResult> out;
  EXPECT_EQ(mb.PopBatch(true, 8, milliseconds(20), out),
            Mailbox::BatchStatus::kTimeout);
  EXPECT_TRUE(out.empty());
}

TEST_F(MailboxBatchTest, ZeroMaxIsImmediateTimeout) {
  Mailbox mb;
  mb.PushUp(MakePacket(*budget_, 1));
  std::vector<Mailbox::PopResult> out;
  EXPECT_EQ(mb.PopBatch(true, 0, seconds(10), out),
            Mailbox::BatchStatus::kTimeout);
  EXPECT_TRUE(out.empty());
}

TEST_F(MailboxBatchTest, PriorityControlThenUpThenDown) {
  Mailbox mb;
  ASSERT_TRUE(mb.PushDown(MakePacket(*budget_, 30)));
  mb.PushUp(MakePacket(*budget_, 20));
  mb.PushControl(Direction::kUp, MakeControl("c"));

  std::vector<Mailbox::PopResult> out;
  ASSERT_EQ(mb.PopBatch(true, 8, milliseconds(20), out),
            Mailbox::BatchStatus::kItems);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].kind, Mailbox::PopResult::Kind::kControl);
  EXPECT_EQ(out[0].control.text, "c");
  ASSERT_EQ(out[1].kind, Mailbox::PopResult::Kind::kData);
  EXPECT_EQ(out[1].data.dir, Direction::kUp);
  EXPECT_EQ(out[1].data.pkt->Data()[0], 20);
  ASSERT_EQ(out[2].kind, Mailbox::PopResult::Kind::kData);
  EXPECT_EQ(out[2].data.dir, Direction::kDown);
  EXPECT_EQ(out[2].data.pkt->Data()[0], 30);
}

TEST_F(MailboxBatchTest, FifoWithinEachClass) {
  Mailbox mb;
  std::vector<PacketPtr> ups;
  for (std::uint8_t i = 0; i < 5; ++i) ups.push_back(MakePacket(*budget_, i));
  mb.PushUpBatch(ups);
  EXPECT_TRUE(ups.empty());
  std::vector<PacketPtr> downs;
  for (std::uint8_t i = 10; i < 15; ++i) {
    downs.push_back(MakePacket(*budget_, i));
  }
  ASSERT_TRUE(mb.PushDownBatch(downs));
  EXPECT_TRUE(downs.empty());

  std::vector<Mailbox::PopResult> out;
  ASSERT_EQ(mb.PopBatch(true, 64, milliseconds(20), out),
            Mailbox::BatchStatus::kItems);
  ASSERT_EQ(out.size(), 10u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].data.dir, Direction::kUp);
    EXPECT_EQ(out[i].data.pkt->Data()[0], static_cast<std::uint8_t>(i));
  }
  for (std::size_t i = 5; i < 10; ++i) {
    EXPECT_EQ(out[i].data.dir, Direction::kDown);
    EXPECT_EQ(out[i].data.pkt->Data()[0], static_cast<std::uint8_t>(5 + i));
  }
}

TEST_F(MailboxBatchTest, MaxNTruncatesAndKeepsRemainder) {
  Mailbox mb;
  std::vector<PacketPtr> ups;
  for (std::uint8_t i = 0; i < 6; ++i) ups.push_back(MakePacket(*budget_, i));
  mb.PushUpBatch(ups);

  std::vector<Mailbox::PopResult> out;
  ASSERT_EQ(mb.PopBatch(true, 4, milliseconds(20), out),
            Mailbox::BatchStatus::kItems);
  ASSERT_EQ(out.size(), 4u);
  ASSERT_EQ(mb.PopBatch(true, 4, milliseconds(20), out),
            Mailbox::BatchStatus::kItems);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].data.pkt->Data()[0], 4);
  EXPECT_EQ(out[1].data.pkt->Data()[0], 5);
}

TEST_F(MailboxBatchTest, DownGatedByAcceptFlag) {
  Mailbox mb;
  ASSERT_TRUE(mb.PushDown(MakePacket(*budget_, 1)));
  mb.PushUp(MakePacket(*budget_, 2));

  std::vector<Mailbox::PopResult> out;
  ASSERT_EQ(mb.PopBatch(false, 8, milliseconds(20), out),
            Mailbox::BatchStatus::kItems);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].data.dir, Direction::kUp);

  ASSERT_EQ(mb.PopBatch(true, 8, milliseconds(20), out),
            Mailbox::BatchStatus::kItems);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].data.dir, Direction::kDown);
}

// Draining a batch must release every blocked producer: one space_ wakeup
// per drained down-item, not one per batch.
TEST_F(MailboxBatchTest, BatchDrainReleasesAllBlockedProducers) {
  Mailbox mb(/*down_capacity=*/2);
  ASSERT_TRUE(mb.PushDown(MakePacket(*budget_, 0)));
  ASSERT_TRUE(mb.PushDown(MakePacket(*budget_, 1)));

  std::atomic<int> delivered{0};
  std::vector<Thread> producers;
  for (int i = 0; i < 2; ++i) {
    producers.emplace_back([this, &mb, &delivered, i](std::stop_token) {
      ASSERT_TRUE(mb.PushDown(MakePacket(*budget_, static_cast<std::uint8_t>(2 + i))));
      delivered.fetch_add(1);
    });
  }
  PreciseSleep(milliseconds(20));
  EXPECT_EQ(delivered.load(), 0);  // both producers blocked on the full queue

  // One batched pop drains both slots; both producers must proceed.
  std::vector<Mailbox::PopResult> out;
  ASSERT_EQ(mb.PopBatch(true, 64, milliseconds(100), out),
            Mailbox::BatchStatus::kItems);
  EXPECT_EQ(out.size(), 2u);
  for (auto& t : producers) t.join();
  EXPECT_EQ(delivered.load(), 2);
  EXPECT_EQ(mb.down_size(), 2u);
}

TEST_F(MailboxBatchTest, CloseDrainsThenReportsClosed) {
  Mailbox mb;
  mb.PushUp(MakePacket(*budget_, 1));
  mb.Close();  // queued items are dropped by Close
  std::vector<Mailbox::PopResult> out;
  EXPECT_EQ(mb.PopBatch(true, 8, milliseconds(20), out),
            Mailbox::BatchStatus::kClosed);
  EXPECT_TRUE(out.empty());
}

TEST_F(MailboxBatchTest, CloseWhileBatchedPopBlocks) {
  Mailbox mb;
  Thread closer([&mb](std::stop_token) {
    PreciseSleep(milliseconds(30));
    mb.Close();
  });
  std::vector<Mailbox::PopResult> out;
  EXPECT_EQ(mb.PopBatch(true, 8, seconds(10), out),
            Mailbox::BatchStatus::kClosed);
  closer.join();
}

TEST_F(MailboxBatchTest, CloseWhilePushDownBatchBlocked) {
  Mailbox mb(/*down_capacity=*/1);
  ASSERT_TRUE(mb.PushDown(MakePacket(*budget_, 0)));
  Thread closer([&mb](std::stop_token) {
    PreciseSleep(milliseconds(30));
    mb.Close();
  });
  std::vector<PacketPtr> batch;
  batch.push_back(MakePacket(*budget_, 1));
  batch.push_back(MakePacket(*budget_, 2));
  EXPECT_FALSE(mb.PushDownBatch(batch));  // woke up into the closed mailbox
  EXPECT_TRUE(batch.empty());
  closer.join();
  EXPECT_EQ(budget_->in_flight(), 0u);  // every packet credited back
}

TEST_F(MailboxBatchTest, PushBatchesOnClosedMailboxDropPackets) {
  Mailbox mb;
  mb.Close();
  std::vector<PacketPtr> ups;
  ups.push_back(MakePacket(*budget_, 1));
  mb.PushUpBatch(ups);
  EXPECT_TRUE(ups.empty());
  std::vector<PacketPtr> downs;
  downs.push_back(MakePacket(*budget_, 2));
  EXPECT_FALSE(mb.PushDownBatch(downs));
  EXPECT_TRUE(downs.empty());
  EXPECT_EQ(budget_->in_flight(), 0u);
}

// Stress: batched producers in both directions against one batched
// consumer, with a bounded down queue forcing backpressure. Exercises the
// space_/cv_ interplay of PushDownBatch and PopBatch under TSan.
TEST_F(MailboxBatchTest, StressBatchedProducersBatchedConsumer) {
  constexpr int kPerProducer = 400;
  constexpr int kProducers = 2;  // one up, one down
  // The up queue is unbounded, so in the worst case every up packet is in
  // flight at once; size the budget for that plus the bounded down window.
  auto budget = std::make_shared<PacketBudget>(
      (kPerProducer * kProducers + 32) *
      (Packet::kHeadroom + 1 + Packet::kTailroom));
  Mailbox mb(/*down_capacity=*/8);

  Thread up_producer([&budget, &mb](std::stop_token) {
    std::vector<PacketPtr> batch;
    for (int i = 0; i < kPerProducer; ++i) {
      batch.push_back(MakePacket(*budget, static_cast<std::uint8_t>(i)));
      if (batch.size() == 7 || i + 1 == kPerProducer) mb.PushUpBatch(batch);
    }
  });
  Thread down_producer([&budget, &mb](std::stop_token) {
    std::vector<PacketPtr> batch;
    for (int i = 0; i < kPerProducer; ++i) {
      batch.push_back(MakePacket(*budget, static_cast<std::uint8_t>(i)));
      if (batch.size() == 5 || i + 1 == kPerProducer) {
        ASSERT_TRUE(mb.PushDownBatch(batch));
      }
    }
  });

  int got_up = 0;
  int got_down = 0;
  std::uint32_t next_up = 0;
  std::uint32_t next_down = 0;
  std::vector<Mailbox::PopResult> out;
  while (got_up + got_down < kPerProducer * kProducers) {
    const auto st = mb.PopBatch(true, 16, seconds(10), out);
    ASSERT_EQ(st, Mailbox::BatchStatus::kItems);
    for (auto& r : out) {
      ASSERT_EQ(r.kind, Mailbox::PopResult::Kind::kData);
      // FIFO per class: tags cycle 0..255 in push order.
      if (r.data.dir == Direction::kUp) {
        EXPECT_EQ(r.data.pkt->Data()[0],
                  static_cast<std::uint8_t>(next_up++));
        ++got_up;
      } else {
        EXPECT_EQ(r.data.pkt->Data()[0],
                  static_cast<std::uint8_t>(next_down++));
        ++got_down;
      }
    }
  }
  up_producer.join();
  down_producer.join();
  out.clear();  // release the last batch
  EXPECT_EQ(got_up, kPerProducer);
  EXPECT_EQ(got_down, kPerProducer);
  EXPECT_EQ(budget->in_flight(), 0u);
}

// A spent budget refuses further packets with kResourceExhausted, and a
// release makes room again.
TEST_F(MailboxBatchTest, BudgetExhaustionSurfacesAsResourceExhausted) {
  auto tiny = std::make_shared<PacketBudget>(
      2 * (Packet::kHeadroom + 64 + Packet::kTailroom));
  auto a = tiny->Allocate(64);
  auto b = tiny->Allocate(64);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = tiny->Allocate(64);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), ErrorCode::kResourceExhausted);
  a->reset();
  EXPECT_TRUE(tiny->Allocate(64).ok());
}

}  // namespace
}  // namespace cool::dacapo

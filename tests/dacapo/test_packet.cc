#include "dacapo/packet.h"

#include <gtest/gtest.h>

#include "common/thread.h"

namespace cool::dacapo {
namespace {

std::vector<std::uint8_t> Bytes(std::initializer_list<std::uint8_t> list) {
  return {list};
}

TEST(PacketTest, SetPayloadAndRead) {
  Packet p(1024);
  ASSERT_TRUE(p.SetPayload(Bytes({1, 2, 3})).ok());
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.Data()[0], 1);
  EXPECT_EQ(p.Data()[2], 3);
}

TEST(PacketTest, PayloadTooLargeFails) {
  Packet p(4);
  std::vector<std::uint8_t> big(5);
  EXPECT_EQ(p.SetPayload(big).code(), ErrorCode::kInvalidArgument);
}

TEST(PacketTest, PushPopHeader) {
  Packet p(64);
  ASSERT_TRUE(p.SetPayload(Bytes({9, 9})).ok());
  ASSERT_TRUE(p.PushHeader(Bytes({0xAA, 0xBB})).ok());
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.Data()[0], 0xAA);

  auto header = p.PopHeader(2);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ((*header)[0], 0xAA);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.Data()[0], 9);
}

TEST(PacketTest, HeaderStackNests) {
  Packet p(64);
  ASSERT_TRUE(p.SetPayload(Bytes({1})).ok());
  ASSERT_TRUE(p.PushHeader(Bytes({2})).ok());  // inner
  ASSERT_TRUE(p.PushHeader(Bytes({3})).ok());  // outer
  EXPECT_EQ((*p.PopHeader(1))[0], 3);
  EXPECT_EQ((*p.PopHeader(1))[0], 2);
  EXPECT_EQ(p.Data()[0], 1);
}

TEST(PacketTest, HeadroomExhaustionFails) {
  Packet p(16);
  std::vector<std::uint8_t> huge(Packet::kHeadroom + 1);
  EXPECT_EQ(p.PushHeader(huge).code(), ErrorCode::kResourceExhausted);
}

TEST(PacketTest, PopHeaderUnderrunFails) {
  Packet p(16);
  ASSERT_TRUE(p.SetPayload(Bytes({1})).ok());
  EXPECT_EQ(p.PopHeader(2).status().code(), ErrorCode::kProtocolError);
}

TEST(PacketTest, PushPopTrailer) {
  Packet p(16);
  ASSERT_TRUE(p.SetPayload(Bytes({5})).ok());
  ASSERT_TRUE(p.PushTrailer(Bytes({0xCC, 0xDD})).ok());
  EXPECT_EQ(p.size(), 3u);
  auto trailer = p.PopTrailer(2);
  ASSERT_TRUE(trailer.ok());
  EXPECT_EQ((*trailer)[0], 0xCC);
  EXPECT_EQ(p.size(), 1u);
}

TEST(PacketTest, TrailerOverflowFails) {
  Packet p(4);
  ASSERT_TRUE(p.SetPayload(Bytes({1, 2, 3, 4})).ok());
  EXPECT_EQ(p.PushTrailer(Bytes({9})).code(), ErrorCode::kResourceExhausted);
}

// Bytes one budgeted allocation of `payload` octets is charged.
constexpr std::size_t Charge(std::size_t payload) {
  return Packet::kHeadroom + payload + Packet::kTailroom;
}

TEST(ArenaTest, AllocateUpToCapacity) {
  auto budget = std::make_shared<PacketBudget>(3 * Charge(64));
  EXPECT_EQ(budget->limit(), 3 * Charge(64));
  auto p1 = budget->Allocate(64);
  auto p2 = budget->Allocate(64);
  auto p3 = budget->Allocate(64);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  ASSERT_TRUE(p3.ok());
  EXPECT_EQ(budget->in_flight(), 3 * Charge(64));
  EXPECT_EQ(budget->Allocate(64).status().code(),
            ErrorCode::kResourceExhausted);
  // Even an empty packet is charged its head- and tailroom.
  EXPECT_EQ(budget->Allocate(0).status().code(),
            ErrorCode::kResourceExhausted);
}

TEST(ArenaTest, ReleaseReturnsToPool) {
  auto budget = std::make_shared<PacketBudget>(Charge(64));
  {
    auto p = budget->Allocate(64);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(budget->in_flight(), Charge(64));
  }
  EXPECT_EQ(budget->in_flight(), 0u);
  EXPECT_TRUE(budget->Allocate(64).ok());
}

TEST(ArenaTest, ReusedPacketIsReset) {
  auto budget = std::make_shared<PacketBudget>(Charge(64));
  {
    auto p = budget->Allocate(64);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE((*p)->SetPayload(Bytes({1, 2, 3})).ok());
    ASSERT_TRUE((*p)->PushHeader(Bytes({9})).ok());
  }
  auto p = budget->Allocate(64);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->size(), 0u);
}

TEST(ArenaTest, MakeCopiesPayload) {
  auto budget = std::make_shared<PacketBudget>(2 * Charge(64));
  auto data = Bytes({7, 8});
  auto p = budget->Make(data);
  ASSERT_TRUE(p.ok());
  data[0] = 0;
  EXPECT_EQ((*p)->Data()[0], 7);
}

TEST(ArenaTest, CloneIsDeepAndKeepsTimestamp) {
  auto budget = std::make_shared<PacketBudget>(2 * Charge(64));
  auto p = budget->Make(Bytes({1, 2}));
  ASSERT_TRUE(p.ok());
  auto clone = budget->Clone(**p);
  ASSERT_TRUE(clone.ok());
  EXPECT_EQ((*clone)->created_at(), (*p)->created_at());
  (*p)->Data()[0] = 99;
  EXPECT_EQ((*clone)->Data()[0], 1);
}

TEST(ArenaTest, CloneCopiesHeadersToo) {
  // Clone duplicates the current Data() view — including pushed headers.
  auto budget = std::make_shared<PacketBudget>(2 * Charge(64));
  auto p = budget->Make(Bytes({1}));
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE((*p)->PushHeader(Bytes({0xEE})).ok());
  auto clone = budget->Clone(**p);
  ASSERT_TRUE(clone.ok());
  ASSERT_EQ((*clone)->size(), 2u);
  EXPECT_EQ((*clone)->Data()[0], 0xEE);
}

TEST(ArenaTest, ConcurrentAllocateRelease) {
  auto budget = std::make_shared<PacketBudget>(16 * Charge(64));
  std::vector<cool::Thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        auto p = budget->Allocate(64);
        if (!p.ok()) {
          ++failures;
          continue;
        }
        (void)(*p)->SetPayload(Bytes({1}));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(budget->in_flight(), 0u);
  EXPECT_EQ(failures.load(), 0);  // 4 threads, 16 packets: never exhausted
}

// Packets are sized for what they carry: a small message costs a small
// charge, so many small packets fit where few full-size ones would.
TEST(PacketBudgetTest, ChargeFollowsAllocatedSize) {
  auto budget = std::make_shared<PacketBudget>(4 * Charge(1024));
  std::vector<PacketPtr> held;
  for (int i = 0; i < 16; ++i) {
    auto p = budget->Allocate(16);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ((*p)->capacity(), 16 + Packet::kTailroom);
    held.push_back(std::move(p).value());
  }
  EXPECT_EQ(budget->in_flight(), 16 * Charge(16));
}

// The payload fills the allocated size exactly; the tailroom takes the
// trailers a checksum module appends behind a full payload.
TEST(PacketBudgetTest, TailroomFitsTrailersBehindAFullPayload) {
  auto budget = std::make_shared<PacketBudget>(Charge(8));
  auto p = budget->Make(std::vector<std::uint8_t>(8, 1));
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE((*p)->PushTrailer(std::vector<std::uint8_t>(4, 2)).ok());
  EXPECT_EQ((*p)->size(), 12u);
}

// A packet may outlive every other owner of its budget (the plane that
// allocated it is gone); releasing it then still credits the budget.
TEST(PacketBudgetTest, PacketOutlivesItsPlane) {
  PacketPtr survivor;
  std::weak_ptr<PacketBudget> watch;
  {
    auto budget = std::make_shared<PacketBudget>(Charge(64));
    watch = budget;
    auto p = budget->Make(Bytes({4, 2}));
    ASSERT_TRUE(p.ok());
    survivor = std::move(p).value();
  }
  ASSERT_FALSE(watch.expired());
  EXPECT_EQ(watch.lock()->in_flight(), Charge(2));
  EXPECT_EQ(survivor->Data()[1], 2);
  survivor.reset();
  EXPECT_TRUE(watch.expired());
}

// Packet storage is a lease on the shared pool, returned on release.
TEST(PacketBudgetTest, StorageIsLeasedFromTheSharedPool) {
  const std::uint64_t before = BufferPool::Default().stats().outstanding;
  auto budget = std::make_shared<PacketBudget>(4 * Charge(1024));
  {
    auto a = budget->Allocate(1024);
    auto b = budget->Allocate(100);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(BufferPool::Default().stats().outstanding, before + 2);
  }
  EXPECT_EQ(BufferPool::Default().stats().outstanding, before);
}

}  // namespace
}  // namespace cool::dacapo

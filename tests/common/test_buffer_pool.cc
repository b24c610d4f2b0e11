// BufferPool: the size-classed free lists behind the allocation-free
// invocation path and Da CaPo packet storage. Covers the ownership rules
// of DESIGN.md "Buffer ownership and lifetimes": leases recycle on
// destruction and move-assign-over, copies are unpooled, and
// capacity/free-list caps hold. The concurrent test is a
// TSan target: lease/recycle from many threads against one pool.
#include "common/buffer_pool.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/thread.h"

namespace cool {
namespace {

TEST(BufferPoolTest, FirstLeaseMissesThenRecycledStorageHits) {
  BufferPool pool;
  {
    ByteBuffer b = pool.Lease();
    EXPECT_TRUE(b.empty());
    b.AppendByte(0x5A);
  }  // recycles
  BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.free_buffers, 1u);

  {
    ByteBuffer b = pool.Lease();
    EXPECT_TRUE(b.empty());  // recycled storage comes back cleared
  }
  s = pool.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(BufferPoolTest, RecycledAllocationIsActuallyReused) {
  BufferPool pool;
  const std::uint8_t* storage = nullptr;
  {
    ByteBuffer b = pool.Lease(256);
    b.AppendZeros(100);
    storage = b.data();
  }
  ByteBuffer again = pool.Lease(64);
  again.AppendByte(1);
  EXPECT_EQ(again.data(), storage);  // same backing allocation, no new heap
}

TEST(BufferPoolTest, OversizedStorageIsNotCached) {
  BufferPool::Options opt;
  opt.max_capacity = 1024;
  opt.initial_reserve = 64;
  BufferPool pool(opt);
  {
    ByteBuffer b = pool.Lease();
    b.AppendZeros(4096);  // grows past max_capacity
  }
  EXPECT_EQ(pool.stats().free_buffers, 0u);
}

TEST(BufferPoolTest, FreeListIsBounded) {
  BufferPool::Options opt;
  opt.max_buffers = 2;
  BufferPool pool(opt);
  {
    std::vector<ByteBuffer> live;
    for (int i = 0; i < 5; ++i) live.push_back(pool.Lease());
  }  // five recycles race for two slots
  EXPECT_EQ(pool.stats().free_buffers, 2u);
}

TEST(BufferPoolTest, CopyIsUnpooledMoveCarriesHoming) {
  BufferPool pool;
  {
    ByteBuffer leased = pool.Lease();
    leased.AppendByte(7);
    ByteBuffer copy = leased;              // unpooled: dies silently
    ByteBuffer moved = std::move(leased);  // homed: recycles
    EXPECT_EQ(copy.size(), 1u);
    EXPECT_EQ(moved.size(), 1u);
  }
  EXPECT_EQ(pool.stats().free_buffers, 1u);
}

TEST(BufferPoolTest, MoveAssignOverLeaseRecyclesTheOldStorage) {
  BufferPool pool;
  {
    ByteBuffer a = pool.Lease();
    ByteBuffer b = pool.Lease();
    a = std::move(b);  // a's original storage returns to the pool here
    EXPECT_EQ(pool.stats().free_buffers, 1u);
  }
  EXPECT_EQ(pool.stats().free_buffers, 2u);
}

TEST(BufferPoolTest, OutstandingCountsLeasesNotYetReturned) {
  BufferPool pool;
  ByteBuffer a = pool.Lease();
  {
    ByteBuffer b = pool.LeaseSized(100);
    EXPECT_EQ(pool.stats().outstanding, 2u);
  }
  EXPECT_EQ(pool.stats().outstanding, 1u);
  a = ByteBuffer();  // move-assigning over a lease returns it
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

// Fixed-size storage takes only the size class it needs, not Lease()'s
// capacity floor, and a recycled store serves the next lease of its class.
TEST(BufferPoolTest, LeaseSizedTakesOnlyItsSizeClass) {
  BufferPool pool;
  const std::uint8_t* storage = nullptr;
  {
    ByteBuffer b = pool.LeaseSized(300);
    ASSERT_EQ(b.size(), 300u);
    EXPECT_EQ(b.data()[299], 0);
    storage = b.data();
  }
  ByteBuffer again = pool.LeaseSized(400);  // same 512-octet class
  EXPECT_EQ(again.data(), storage);
  ByteBuffer big = pool.Lease();  // floor: initial_reserve, another class
  EXPECT_NE(big.data(), storage);
}

// Default()'s per-thread front hands a dying thread's stores back to the
// shared lists: nothing leased on the thread stays stranded with it.
TEST(BufferPoolTest, DefaultFrontFlushesWhenItsThreadExits) {
  BufferPool& pool = BufferPool::Default();
  const BufferPool::Stats before = pool.stats();
  Thread worker([&pool] {
    std::vector<ByteBuffer> held;
    for (int i = 0; i < 3; ++i) held.push_back(pool.LeaseSized(300));
  });
  worker.join();
  const BufferPool::Stats after = pool.stats();
  EXPECT_EQ(after.outstanding, before.outstanding);
  EXPECT_EQ(after.free_buffers,
            before.free_buffers + (after.misses - before.misses));
}

// TSan target: concurrent lease/append/recycle against one pool.
TEST(BufferPoolStressTest, ConcurrentLeaseRecycle) {
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  BufferPool pool;
  {
    std::vector<Thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&pool] {
        for (int i = 0; i < kIters; ++i) {
          ByteBuffer b = pool.Lease(64);
          b.AppendByte(static_cast<std::uint8_t>(i));
          ByteBuffer taken = std::move(b);
          ASSERT_EQ(taken.size(), 1u);
        }  // recycle
      });
    }
    for (Thread& t : threads) t.join();
  }
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_LE(s.free_buffers, BufferPool::Options{}.max_buffers);
}

}  // namespace
}  // namespace cool

// BufferPool: the one pooled-buffer mechanism. The hot path's buffers (CDR
// argument encoding, GIOP frame assembly, transport receive) and every Da
// CaPo packet's storage are leased and recycled instead of heap allocated
// per call. A leased ByteBuffer remembers its pool and returns its storage
// on destruction (or when moved-over), keeping it warm for the next lease.
//
// Free lists come in power-of-two size classes, each with its own lock. A
// lease takes the smallest class covering its size, else a larger one (so
// a buffer grown by an unsized lease stays warm), else allocates; a store
// comes back under the largest class its capacity covers.
//
// Ownership rules (see DESIGN.md "Buffer ownership and lifetimes"):
//  - Lease() hands out an empty ByteBuffer homed to this pool;
//    LeaseSized() one of a fixed size.
//  - Destroying (or move-assigning over) the buffer recycles the storage.
//  - Copying a pooled buffer yields an unpooled copy; moving transfers the
//    pool homing. The pool must outlive every leased buffer — use
//    BufferPool::Default() (never destroyed) unless a scoped pool's
//    lifetime is provably wider than its leases.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/byte_buffer.h"
#include "common/mutex.h"

namespace cool {

class BufferPool {
 public:
  struct Options {
    // Per-class free-list cap; storage returned beyond this is freed.
    std::size_t max_buffers = 64;
    // Largest size class. Bigger leases are served but never cached
    // (protects against one jumbo message pinning megabytes).
    std::size_t max_capacity = 1 << 20;
    // Capacity floor of Lease(): what an unsized lease gets.
    std::size_t initial_reserve = 4096;
  };

  struct Stats {
    std::uint64_t hits = 0;         // leases served from a free list
    std::uint64_t misses = 0;       // leases that had to allocate
    std::size_t free_buffers = 0;   // in the shared lists
    std::uint64_t outstanding = 0;  // leases not yet returned
  };

  static constexpr std::size_t kMinClass = 256;  // smallest size class

  BufferPool() : BufferPool(Options{}) {}
  explicit BufferPool(const Options& options);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Returns an empty buffer homed to this pool with at least
  // max(reserve, initial_reserve) octets of capacity.
  ByteBuffer Lease(std::size_t reserve = 0);

  // A buffer of exactly `size` octets of unspecified content, without
  // Lease()'s floor: fixed-size storage (a Da CaPo packet's) takes only
  // the class it needs, and a recycled store is not cleared again.
  ByteBuffer LeaseSized(std::size_t size);

  Stats stats() const;

  // Process-wide pool used by the invocation path. Never destroyed, so
  // leases in detached threads can safely outlive static teardown.
  static BufferPool& Default();

 private:
  friend class ByteBuffer;
  using Stores = std::vector<std::vector<std::uint8_t>>;

  struct SizeClass {
    Mutex mu{LockRank::kLeaf, "BufferPool::SizeClass::mu"};
    Stores free COOL_GUARDED_BY(mu);
  };
  // Default()'s per-thread front: a thread's own stores of the smallest
  // classes, so the data path mostly skips the locks. Refilled from and
  // spilled to the shared lists kFrontBatch at a time; flushed to them
  // when the thread exits (only Default() is never destroyed).
  static constexpr std::size_t kFrontClasses = 8;  // 256 B .. 32 KiB
  static constexpr std::size_t kFrontBatch = 4;
  struct Front {
    ~Front();
    Stores free[kFrontClasses];
  };

  static std::size_t ClassSize(std::size_t k) { return kMinClass << k; }
  // The calling thread's front list of class k, if it has one.
  Stores* FrontOf(std::size_t k);
  // Moves the stores of `front` beyond `keep` to class k's shared list,
  // freeing what exceeds max_buffers there.
  void Spill(std::size_t k, Stores& front, std::size_t keep);
  // Storage of at least `need` octets: recycled if a list covers it.
  std::vector<std::uint8_t> Take(std::size_t need);
  // Takes storage back from a dying/moved-over leased buffer.
  void Recycle(std::vector<std::uint8_t>&& storage);

  static thread_local Front front_;
  static thread_local bool front_gone_;
  const Options options_;
  std::size_t num_classes_ = 1;
  std::unique_ptr<SizeClass[]> classes_;
  bool fronted_ = false;  // set once by Default()
  // Lease and return counters sit on separate lines: a sender leases
  // what another thread returns.
  alignas(64) std::atomic<std::uint64_t> hits_{0}, misses_{0};
  alignas(64) std::atomic<std::uint64_t> returned_{0};
};

}  // namespace cool

// Counting replacements for the replaceable global allocation functions.
// Each thread counts into its own cache-line-sized shard, so the hook adds
// no cross-core traffic to the allocation-heavy paths it measures.
#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

constexpr unsigned kShards = 64;

struct alignas(64) Shard {
  std::atomic<std::uint64_t> count{0};
};

Shard g_shards[kShards];
std::atomic<unsigned> g_next_shard{0};
// Constant-initialized, so the per-call access needs no TLS guard.
thread_local unsigned t_shard = kShards;

void CountOne() noexcept {
  if (t_shard == kShards) {
    t_shard = g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  }
  g_shards[t_shard].count.fetch_add(1, std::memory_order_relaxed);
}

void* Counted(std::size_t size) noexcept {
  CountOne();
  return std::malloc(size != 0 ? size : 1);
}

void* CountedAligned(std::size_t size, std::size_t align) noexcept {
  CountOne();
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : 1) != 0) return nullptr;
  return p;
}

}  // namespace

namespace orbbench {

std::uint64_t AllocCount() {
  std::uint64_t total = 0;
  for (const Shard& s : g_shards) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace orbbench

void* operator new(std::size_t size) {
  void* p = Counted(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = Counted(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Counted(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Counted(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = CountedAligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = CountedAligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#include "common/buffer_pool.h"

#include <algorithm>

namespace cool {

thread_local BufferPool::Front BufferPool::front_;
thread_local bool BufferPool::front_gone_ = false;

BufferPool::BufferPool(const Options& options) : options_(options) {
  // Halving the cap, not doubling the class: the shift cannot overflow.
  while (ClassSize(num_classes_ - 1) <= options_.max_capacity / 2) {
    ++num_classes_;
  }
  classes_ = std::make_unique<SizeClass[]>(num_classes_);
}

BufferPool::Front::~Front() {
  front_gone_ = true;  // later returns on this thread skip the front
  for (std::size_t k = 0; k < kFrontClasses; ++k) {
    Default().Spill(k, free[k], 0);
  }
}

BufferPool::Stores* BufferPool::FrontOf(std::size_t k) {
  if (!fronted_ || k >= kFrontClasses || front_gone_) return nullptr;
  return &front_.free[k];
}

void BufferPool::Spill(std::size_t k, Stores& front, std::size_t keep) {
  {
    SizeClass& c = classes_[k];
    MutexLock lock(c.mu);
    while (front.size() > keep && c.free.size() < options_.max_buffers) {
      c.free.push_back(std::move(front.back()));
      front.pop_back();
    }
  }
  if (front.size() > keep) front.resize(keep);  // list full: free, unlocked
}

std::vector<std::uint8_t> BufferPool::Take(std::size_t need) {
  std::size_t first = 0;
  while (first < num_classes_ && ClassSize(first) < need) ++first;
  std::vector<std::uint8_t> storage;
  if (Stores* front = FrontOf(first)) {
    if (front->empty()) {
      SizeClass& c = classes_[first];
      MutexLock lock(c.mu);
      while (front->size() < kFrontBatch && !c.free.empty()) {
        front->push_back(std::move(c.free.back()));
        c.free.pop_back();
      }
    }
    if (!front->empty()) {
      storage = std::move(front->back());
      front->pop_back();
      hits_.fetch_add(1, std::memory_order_relaxed);
      return storage;
    }
  }
  for (std::size_t k = first; k < num_classes_; ++k) {
    SizeClass& c = classes_[k];
    MutexLock lock(c.mu);
    if (!c.free.empty()) {
      storage = std::move(c.free.back());
      c.free.pop_back();
      hits_.fetch_add(1, std::memory_order_relaxed);
      return storage;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  storage.reserve(first < num_classes_ ? ClassSize(first) : need);
  return storage;
}

ByteBuffer BufferPool::Lease(std::size_t reserve) {
  ByteBuffer buf(Take(std::max(reserve, options_.initial_reserve)));
  buf.Clear();
  buf.pool_ = this;
  return buf;
}

ByteBuffer BufferPool::LeaseSized(std::size_t size) {
  std::vector<std::uint8_t> storage = Take(size);
  storage.resize(size);  // fills only past what the store last held
  ByteBuffer buf(std::move(storage));
  buf.pool_ = this;
  return buf;
}

void BufferPool::Recycle(std::vector<std::uint8_t>&& storage) {
  returned_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t capacity = storage.capacity();
  if (capacity < ClassSize(0) || capacity > options_.max_capacity) return;
  std::size_t k = 0;
  while (k + 1 < num_classes_ && ClassSize(k + 1) <= capacity) ++k;
  if (Stores* front = FrontOf(k)) {
    front->push_back(std::move(storage));
    if (front->size() >= 2 * kFrontBatch) Spill(k, *front, kFrontBatch);
    return;
  }
  SizeClass& c = classes_[k];
  MutexLock lock(c.mu);
  if (c.free.size() >= options_.max_buffers) return;
  c.free.push_back(std::move(storage));
}

BufferPool::Stats BufferPool::stats() const {
  Stats s;
  for (std::size_t k = 0; k < num_classes_; ++k) {
    MutexLock lock(classes_[k].mu);
    s.free_buffers += classes_[k].free.size();
  }
  const std::uint64_t returned = returned_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  const std::uint64_t leased = s.hits + s.misses;
  s.outstanding = leased > returned ? leased - returned : 0;
  return s;
}

BufferPool& BufferPool::Default() {
  // Intentionally leaked: leased buffers in detached threads may be
  // destroyed after static teardown and must still find a live pool.
  static BufferPool* pool = [] {
    auto* p = new BufferPool();
    p->fronted_ = true;
    return p;
  }();
  return *pool;
}

}  // namespace cool

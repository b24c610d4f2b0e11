// Per-module mailbox: the pair of message queues from the paper's Fig. 6
// (one for data, one for control), refined so that a module can exert
// backpressure on the *down* direction (toward the network) while still
// draining control messages and up-travelling packets (e.g. ACKs) — an ARQ
// module that stopped reading entirely would deadlock waiting for its own
// acknowledgements.
//
// Priority on pop: control > up-data > down-data. The down queue is bounded;
// pushing into a full down queue blocks, which propagates backpressure
// chain-upward to the sending application. Up and control are unbounded
// (their volume is bounded by the receive window of the transport).
//
// The mailbox is single-consumer (exactly one engine thread pops it) and
// multi-producer. Producers therefore wake the consumer with NotifyOne;
// only Close broadcasts. The batch operations (PushDownBatch, PushUpBatch,
// PopBatch) move whole trains of packets under a single lock acquisition,
// so the per-packet mutex + wakeup cost of the Fig. 6 pointer-passing
// design is amortized across the batch.
//
// Since PR 8 one mailbox serves the whole chain (run-to-completion burst
// engine, DESIGN.md §12): every item carries the chain position (`origin`)
// of the module that handles it first, and the engine walks the train from
// there through the rest of the chain without re-queueing.
#pragma once

#include <deque>
#include <string>
#include <variant>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "dacapo/packet.h"

namespace cool::dacapo {

enum class Direction { kDown, kUp };

inline Direction Opposite(Direction d) noexcept {
  return d == Direction::kDown ? Direction::kUp : Direction::kDown;
}

// In-band control messages travelling along the chain (distinct from
// protocol headers, which ride on packets).
struct ControlMsg {
  enum class Kind {
    kError,        // unrecoverable module failure; text explains
    kPeerClosed,   // transport saw the peer go away
    kPause,        // reconfiguration: stop emitting data
    kResume,       // reconfiguration finished
    kStatsRequest, // modules append stats via ControlUp
  };
  Kind kind = Kind::kError;
  std::string text;
  std::uint64_t arg = 0;
};

struct DataItem {
  Direction dir = Direction::kDown;
  PacketPtr pkt;
  // Chain position of the module that handles this item first (the burst
  // engine starts its walk there).
  std::size_t origin = 0;
};

class Mailbox {
 public:
  struct PopResult {
    enum class Kind { kControl, kData, kTimeout, kClosed } kind;
    // Valid for the corresponding Kind only.
    ControlMsg control;
    Direction control_dir = Direction::kDown;
    std::size_t control_origin = 0;
    DataItem data;
  };

  explicit Mailbox(std::size_t down_capacity = 64)
      : down_capacity_(down_capacity) {}

  // Control: never blocks, never dropped. (All notifications below happen
  // under the mutex so a consumer may destroy the mailbox right after
  // observing the item — see BlockingQueue for the rationale.)
  void PushControl(Direction dir, ControlMsg msg, std::size_t origin = 0) {
    MutexLock lock(mu_);
    if (closed_) return;
    control_.push_back({dir, std::move(msg), origin});
    cv_.NotifyOne();
  }

  // Up data: never blocks (see file comment).
  void PushUp(PacketPtr pkt, std::size_t origin = 0) {
    MutexLock lock(mu_);
    if (closed_) return;
    up_.push_back({std::move(pkt), origin});
    cv_.NotifyOne();
  }

  // Batched up push: the whole train enters under one lock acquisition and
  // the consumer is woken once. `pkts` is emptied either way.
  void PushUpBatch(std::vector<PacketPtr>& pkts, std::size_t origin = 0) {
    if (pkts.empty()) return;
    MutexLock lock(mu_);
    if (!closed_) {
      for (auto& p : pkts) up_.push_back({std::move(p), origin});
      cv_.NotifyOne();
    }
    pkts.clear();  // closed: packets are released here
  }

  // Down data: blocks while the down queue is full. Returns false when the
  // mailbox closed while waiting (packet is dropped).
  bool PushDown(PacketPtr pkt, std::size_t origin = 0) {
    MutexLock lock(mu_);
    while (!closed_ && down_.size() >= down_capacity_) space_.Wait(mu_);
    if (closed_) return false;
    down_.push_back({std::move(pkt), origin});
    cv_.NotifyOne();
    return true;
  }

  // Batched down push: FIFO, blocking for space as needed, one lock
  // acquisition while the queue has room. Returns false once the mailbox
  // closed (remaining packets are dropped). `pkts` is emptied either way.
  bool PushDownBatch(std::vector<PacketPtr>& pkts, std::size_t origin = 0) {
    MutexLock lock(mu_);
    bool pushed_any = false;
    for (auto& p : pkts) {
      while (!closed_ && down_.size() >= down_capacity_) {
        // The consumer may be asleep with the items we already queued; it
        // must run for space to ever appear, so wake it before waiting.
        if (pushed_any) cv_.NotifyOne();
        space_.Wait(mu_);
      }
      if (closed_) {
        pkts.clear();
        return false;
      }
      down_.push_back({std::move(p), origin});
      pushed_any = true;
    }
    if (pushed_any) cv_.NotifyOne();
    pkts.clear();
    return true;
  }

  // Pops the highest-priority item. Down-data is only eligible when
  // `accept_down` is true. Returns kTimeout if nothing eligible arrived
  // within `timeout`, kClosed once closed and fully drained.
  PopResult PopNext(bool accept_down, Duration timeout) {
    const TimePoint deadline = DeadlineFor(timeout);
    MutexLock lock(mu_);
    for (;;) {
      if (!control_.empty()) {
        PopResult r;
        r.kind = PopResult::Kind::kControl;
        r.control_dir = control_.front().dir;
        r.control = std::move(control_.front().msg);
        r.control_origin = control_.front().origin;
        control_.pop_front();
        return r;
      }
      if (!up_.empty()) {
        PopResult r;
        r.kind = PopResult::Kind::kData;
        r.data = DataItem{Direction::kUp, std::move(up_.front().pkt),
                          up_.front().origin};
        up_.pop_front();
        return r;
      }
      if (accept_down && !down_.empty()) {
        PopResult r;
        r.kind = PopResult::Kind::kData;
        r.data = DataItem{Direction::kDown, std::move(down_.front().pkt),
                          down_.front().origin};
        down_.pop_front();
        space_.NotifyOne();
        return r;
      }
      if (closed_) {
        PopResult r;
        r.kind = PopResult::Kind::kClosed;
        return r;
      }
      if (!cv_.WaitUntil(mu_, deadline)) {
        PopResult r;
        r.kind = PopResult::Kind::kTimeout;
        return r;
      }
    }
  }

  enum class BatchStatus { kItems, kTimeout, kClosed };

  // Drains every eligible item — all control, then all up-data, then (when
  // `accept_down`) all down-data, FIFO within each class — under a single
  // lock acquisition, up to `max_n` items appended to `out` (which is
  // cleared first; pass the same vector each call to reuse its capacity).
  // Blocks like PopNext when nothing is eligible: kTimeout after `timeout`,
  // kClosed once closed and drained, kItems otherwise. One space_ wakeup is
  // issued per drained down-item so every blocked producer resumes.
  BatchStatus PopBatch(bool accept_down, std::size_t max_n, Duration timeout,
                       std::vector<PopResult>& out) {
    out.clear();
    if (max_n == 0) return BatchStatus::kTimeout;
    const TimePoint deadline = DeadlineFor(timeout);
    MutexLock lock(mu_);
    for (;;) {
      while (out.size() < max_n && !control_.empty()) {
        PopResult r;
        r.kind = PopResult::Kind::kControl;
        r.control_dir = control_.front().dir;
        r.control = std::move(control_.front().msg);
        r.control_origin = control_.front().origin;
        control_.pop_front();
        out.push_back(std::move(r));
      }
      while (out.size() < max_n && !up_.empty()) {
        PopResult r;
        r.kind = PopResult::Kind::kData;
        r.data = DataItem{Direction::kUp, std::move(up_.front().pkt),
                          up_.front().origin};
        up_.pop_front();
        out.push_back(std::move(r));
      }
      if (accept_down) {
        while (out.size() < max_n && !down_.empty()) {
          PopResult r;
          r.kind = PopResult::Kind::kData;
          r.data = DataItem{Direction::kDown, std::move(down_.front().pkt),
                            down_.front().origin};
          down_.pop_front();
          space_.NotifyOne();
          out.push_back(std::move(r));
        }
      }
      if (!out.empty()) return BatchStatus::kItems;
      if (closed_) return BatchStatus::kClosed;
      if (!cv_.WaitUntil(mu_, deadline)) return BatchStatus::kTimeout;
    }
  }

  void Close() {
    MutexLock lock(mu_);
    closed_ = true;
    // Packets held in the queues are released on destruction.
    control_.clear();
    up_.clear();
    down_.clear();
    cv_.NotifyAll();
    space_.NotifyAll();
  }

  bool closed() const {
    MutexLock lock(mu_);
    return closed_;
  }

  std::size_t down_size() const {
    MutexLock lock(mu_);
    return down_.size();
  }

 private:
  struct ControlItem {
    Direction dir;
    ControlMsg msg;
    std::size_t origin;
  };
  struct QueuedPacket {
    PacketPtr pkt;
    std::size_t origin;
  };

  const std::size_t down_capacity_;
  mutable Mutex mu_{LockRank::kMailbox, "dacapo::Mailbox::mu_"};
  CondVar cv_;
  CondVar space_;
  std::deque<ControlItem> control_ COOL_GUARDED_BY(mu_);
  std::deque<QueuedPacket> up_ COOL_GUARDED_BY(mu_);
  std::deque<QueuedPacket> down_ COOL_GUARDED_BY(mu_);
  bool closed_ COOL_GUARDED_BY(mu_) = false;
};

}  // namespace cool::dacapo

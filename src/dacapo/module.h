// Da CaPo module interface (paper §5.1): "The Da CaPo modules are C++
// objects inheriting a base class, the modules implement the packet
// handling methods for data and control information." Modules talk to
// their neighbours exclusively through their ModulePort.
//
// Since PR 8 the chain runs BESS-style: one engine thread per chain pops a
// packet train from the chain mailbox and walks it through every module
// run-to-completion (DESIGN.md §12). The primary data entry point is
// ProcessBurst(PacketBatch&); HandleData remains the per-packet workhorse
// that the default ProcessBurst shim loops over, so existing modules and
// test doubles keep working unchanged.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "dacapo/mailbox.h"
#include "dacapo/packet.h"

namespace cool::dacapo {

// A train of packets moving through the chain together: fixed-capacity
// inline storage so a burst never allocates. Ownership of every slot
// belongs to the batch; a module consumes a packet with Take(i) (nulling
// the slot) and calls Compact() to close the gaps. Whatever remains in the
// batch when ProcessBurst returns is the *unconsumed leftover* — for the
// down direction the engine re-queues it, FIFO, ahead of later traffic
// (flow-control modules truncate a burst this way); up bursts must be
// consumed in full.
class PacketBatch {
 public:
  static constexpr std::size_t kCapacity = 32;

  bool PushBack(PacketPtr pkt) {
    if (count_ >= kCapacity) return false;
    slots_[count_++] = std::move(pkt);
    return true;
  }

  PacketPtr Take(std::size_t i) { return std::move(slots_[i]); }

  // Drops null (taken) slots, preserving the order of the rest.
  void Compact() {
    std::size_t w = 0;
    for (std::size_t r = 0; r < count_; ++r) {
      if (slots_[r]) {
        if (w != r) slots_[w] = std::move(slots_[r]);
        ++w;
      }
    }
    count_ = w;
  }

  void Clear() {
    for (std::size_t i = 0; i < count_; ++i) slots_[i].reset();
    count_ = 0;
  }

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  bool full() const noexcept { return count_ >= kCapacity; }
  PacketPtr& operator[](std::size_t i) { return slots_[i]; }
  const PacketPtr& operator[](std::size_t i) const { return slots_[i]; }

  PacketPtr* begin() noexcept { return slots_.data(); }
  PacketPtr* end() noexcept { return slots_.data() + count_; }

 private:
  std::array<PacketPtr, kCapacity> slots_;
  std::size_t count_ = 0;
};

// The runtime-provided view a module has of its surroundings. ForwardDown
// may block (bounded queues, backpressure); ForwardUp never blocks.
class ModulePort {
 public:
  virtual ~ModulePort() = default;

  // Pass a packet to the next module toward the application (layer A).
  virtual void ForwardUp(PacketPtr pkt) = 0;
  // Pass a packet to the next module toward the transport (layer T).
  virtual void ForwardDown(PacketPtr pkt) = 0;

  // Batch variants: forward a whole train of packets, FIFO, emptying `pkts`.
  // The runtime overrides these with single-lock mailbox pushes; the default
  // is a per-packet loop so test doubles keep working unchanged.
  virtual void ForwardUpBatch(std::vector<PacketPtr>& pkts) {
    for (auto& p : pkts) ForwardUp(std::move(p));
    pkts.clear();
  }
  virtual void ForwardDownBatch(std::vector<PacketPtr>& pkts) {
    for (auto& p : pkts) ForwardDown(std::move(p));
    pkts.clear();
  }

  virtual void ControlUp(ControlMsg msg) = 0;
  virtual void ControlDown(ControlMsg msg) = 0;

  // Packet memory of this connection, charged to the plane's budget;
  // kResourceExhausted while it is spent (transient: see WaitBudget).
  Result<PacketPtr> Allocate(std::size_t n) { return budget().Allocate(n); }
  Result<PacketPtr> Make(std::span<const std::uint8_t> payload) {
    return budget().Make(payload);
  }
  Result<PacketPtr> Clone(const Packet& src) { return budget().Clone(src); }
  virtual PacketBudget& budget() = 0;

  // Budget-backpressure wait point: a module that must allocate (e.g. the
  // fragmenter cutting a large message) calls this between retries instead
  // of sleeping directly. The engine override services up-traffic and
  // control while waiting, so the packets whose release we are waiting for
  // (ACKs opening a window below us) can still flow; the default is a
  // plain sleep for test doubles.
  virtual void WaitBudget(Duration d) { PreciseSleep(d); }

  // Connection name, for logs.
  virtual std::string_view channel_name() const = 0;
};

class Module {
 public:
  virtual ~Module() = default;

  virtual std::string_view name() const = 0;

  // Called on the module's own thread before any packet handling. The port
  // stays valid until after OnStop returns and may be captured (the T
  // module keeps it for its receive path).
  virtual Status OnStart(ModulePort& port) {
    (void)port;
    return Status::Ok();
  }

  // Called on the module's thread after the last packet; queues are closed.
  virtual void OnStop(ModulePort& port) { (void)port; }

  // Handle one data packet travelling in direction `dir`. A transparent
  // module forwards it onward; protocol modules transform, consume, or
  // generate packets via the port.
  virtual void HandleData(Direction dir, PacketPtr pkt, ModulePort& port) = 0;

  // Primary data entry point: handle a whole train travelling in `dir`.
  // The module owns every slot; it consumes packets via Take/Compact and
  // may split the train (forwarding parts via the port) or truncate it by
  // leaving unconsumed packets in the batch — those the engine stalls,
  // FIFO, until ReadyForDown() turns true again (down direction only; up
  // bursts must be consumed in full). The default shim loops HandleData
  // and stops at the first packet the module is not ready for, so
  // per-packet modules inherit correct truncation semantics.
  virtual void ProcessBurst(Direction dir, PacketBatch& batch,
                            ModulePort& port) {
    std::size_t i = 0;
    for (; i < batch.size(); ++i) {
      if (dir == Direction::kDown && !ReadyForDown()) break;
      HandleData(dir, batch.Take(i), port);
    }
    batch.Compact();
  }

  // Handle a control message travelling in `dir`. Default: pass it along.
  virtual void HandleControl(Direction dir, ControlMsg msg, ModulePort& port) {
    if (dir == Direction::kDown) {
      port.ControlDown(std::move(msg));
    } else {
      port.ControlUp(std::move(msg));
    }
  }

  // Backpressure hook: while false, the runtime will not hand this module
  // down-travelling data packets (up-travelling packets and control still
  // flow). ARQ modules use this to bound their in-flight window.
  virtual bool ReadyForDown() const { return true; }

  // If set, OnTick is invoked at least this often (retransmission timers,
  // token refill, ...).
  virtual std::optional<Duration> TickInterval() const { return std::nullopt; }
  virtual void OnTick(ModulePort& port) { (void)port; }

  // Monitoring hook (the paper's management component monitors the module
  // graph): a short human-readable counter summary, e.g. "retx=3".
  // Called from outside the module's thread — implementations must only
  // read atomic counters here. Default: no stats.
  virtual std::string DescribeStats() const { return ""; }
};

// Forwards a packet onward in its current travel direction.
inline void ForwardOnward(Direction dir, PacketPtr pkt, ModulePort& port) {
  if (dir == Direction::kDown) {
    port.ForwardDown(std::move(pkt));
  } else {
    port.ForwardUp(std::move(pkt));
  }
}

// Batch counterpart: forwards a whole train onward, emptying `pkts`.
inline void ForwardBatchOnward(Direction dir, std::vector<PacketPtr>& pkts,
                               ModulePort& port) {
  if (dir == Direction::kDown) {
    port.ForwardDownBatch(pkts);
  } else {
    port.ForwardUpBatch(pkts);
  }
}

}  // namespace cool::dacapo

// Weighted-fair egress arbitration for bindings sharing one host's Da CaPo
// link. The server dispatch pool keeps a bursty tenant from monopolising
// the upcall workers; this is the same hierarchical scheduler
// (common/qos_sched.h) mounted on the *transmit* side, so the packet
// trains of concurrent bindings interleave weighted-fairly instead of
// first-grabbed-lock-wins (paper §4.2: QoS semantics must survive the
// shared endsystem resources, and the link is one of them).
//
// No threads of its own — a turnstile: a sender asks Acquire(binding,
// bytes) for its turn, parks on a per-ticket CondVar while the traffic-
// class tree arbitrates (WFQ across bands, DRR across bindings, optional
// CoDel on the waiting tickets), transmits when granted, then Release()
// hands the link to the next ticket. Uncontended sends take one mutex and
// go straight through.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/qos_sched.h"
#include "qos/classify.h"

namespace cool::transport {

class EgressScheduler {
 public:
  struct Options {
    // WFQ weights of the High/Normal/Low bands (mirrors the dispatch
    // pool's defaults: High outweighs Low 8:1, Low never starves).
    std::array<std::uint32_t, 3> class_weights{8, 4, 1};
    // DRR quantum among bindings, in bytes of message payload.
    std::uint32_t quantum_bytes = 4096;
    // CoDel AQM on the waiting tickets. Off by default: a shed ticket
    // surfaces as an UnavailableError to the sender, a policy the ORB
    // owner opts into (README, giop knobs).
    bool codel_enabled = false;
    Duration codel_target = milliseconds(5);
    Duration codel_interval = milliseconds(100);
  };

  // Scheduling cost floor per message (header + per-send overhead), added
  // to the payload bytes so empty messages still pay their turn.
  static constexpr std::size_t kMessageBaseCost = 64;

  EgressScheduler() : EgressScheduler(Options{}) {}
  explicit EgressScheduler(const Options& options);
  ~EgressScheduler();

  EgressScheduler(const EgressScheduler&) = delete;
  EgressScheduler& operator=(const EgressScheduler&) = delete;

  // Process-unique binding id for Register/Acquire/Unregister.
  static std::uint64_t AllocBindingId();

  // Declares (or re-declares) a binding's scheduling profile: band picks
  // the WFQ class, weight scales its DRR quantum, rate caps its bytes/s
  // with a token bucket. Unknown bindings that Acquire without
  // registering ride the Normal band at weight 1.
  void RegisterBinding(std::uint64_t binding_id,
                       const qos::SchedProfile& profile);
  // Forgets the binding; parked tickets of the binding are released as
  // not-granted (their senders see the scheduler refuse).
  void UnregisterBinding(std::uint64_t binding_id);

  // Blocks until it is this binding's turn to put `bytes` on the link.
  // True = granted; the caller MUST pair it with Release() after the
  // send. False = the scheduler is closed, the binding was unregistered
  // mid-wait, or CoDel shed the ticket — nothing to release.
  bool Acquire(std::uint64_t binding_id, std::size_t bytes);
  // Returns the link and wakes the next ticket in scheduling order.
  void Release();

  // Live reconfiguration (applies from the next arbitration).
  void SetClassWeight(qos::SchedProfile::Band band, std::uint32_t weight);
  void SetCodel(bool enabled, Duration target, Duration interval);

  // Releases every parked ticket as refused; subsequent Acquires fail.
  void Close();

  std::uint64_t grants() const noexcept {
    return grants_.load(std::memory_order_relaxed);
  }
  std::uint64_t sheds() const noexcept {
    return sheds_.load(std::memory_order_relaxed);
  }

  // Per-band scheduler counters + ticket-wait percentiles (High, Normal,
  // Low order; the synthetic root is omitted).
  std::vector<sched::ClassSnapshot> StatsSnapshot() const;
  std::string DescribeStats() const;

 private:
  // One parked sender. Stack-allocated in Acquire; the tree holds the
  // pointer only while the ticket is queued, and the owning thread never
  // leaves Acquire while it is.
  struct Ticket {
    CondVar cv;
    enum class State { kWaiting, kGranted, kRefused } state = State::kWaiting;
  };
  using Tree = sched::TrafficClassTree<Ticket*>;

  // Pops tickets while the link is free: refused (AQM) tickets are marked
  // kRefused, the granted one takes the link as kGranted. Returns the
  // tickets to notify — the caller wakes them under its visible lock.
  std::vector<Ticket*> ServeLocked(TimePoint now) COOL_REQUIRES(mu_);
  sched::ClassOptions BandOptions(std::size_t band) const COOL_REQUIRES(mu_);

  Options options_;
  std::atomic<std::uint64_t> grants_{0};
  std::atomic<std::uint64_t> sheds_{0};

  mutable Mutex mu_{LockRank::kChannel, "transport::EgressScheduler::mu_"};
  Tree tree_ COOL_GUARDED_BY(mu_){};
  std::array<Tree::ClassId, 3> cls_id_ COOL_GUARDED_BY(mu_){};
  std::unordered_map<std::uint64_t, qos::SchedProfile> profiles_
      COOL_GUARDED_BY(mu_);
  bool busy_ COOL_GUARDED_BY(mu_) = false;  // a granted sender owns the link
  bool closed_ COOL_GUARDED_BY(mu_) = false;
};

}  // namespace cool::transport

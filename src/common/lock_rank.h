// Declared lock-rank hierarchy (DESIGN.md §11). Every named cool::Mutex /
// cool::SharedMutex in src/ is constructed with one of these ranks; a
// thread may only acquire a lock whose rank is <= the minimum rank it
// already holds (outer locks have higher ranks). The machine-readable
// twin of this enum lives in scripts/lock_order.yaml — check_invariants.py
// cross-checks the two against every Mutex declaration in the tree, and
// the runtime detector (common/deadlock.h, COOL_DEADLOCK_DETECTOR=ON)
// enforces the same order on every acquisition, plus full cycle detection
// among same-rank locks.
//
// Realized order, outermost (acquired first) to innermost:
//
//   kStream > kOrb > kAdapterShard > kEngine > kDispatchPool > kChannel
//           > kSession > kMailbox > kSimNetwork > kWaitSet > kLeaf
//
// Two deliberate refinements over the coarse "ORB > adapter > engine >
// pool > session > mailbox > transport > waitset" sketch: the transport
// *channel* locks (kChannel) sit above kSession/kMailbox because
// DacapoComChannel wraps a dacapo::Session (a channel send holds tx_mu_
// across Session::SendWith, which takes plane_mu_ then the mailbox lock),
// while the simulated-network socket locks (kSimNetwork) sit below them —
// they are the innermost I/O layer and post to wait sets last. kStream
// tops the table because the stream adapter (layer 7) drives ORB and
// session operations from under its own locks.
#pragma once

namespace cool {

enum class LockRank : int {
  // Wildcard for unranked lock users (tests, scratch tooling): exempt from
  // the rank monotonicity check, still part of cycle detection.
  kUnranked = -1,

  // Leaf utilities that never acquire another lock while held: the buffer
  // pool's size classes, blocking queues, registries, stats counters.
  kLeaf = 0,

  // sim::WaitSet cores and Watchables — the readiness primitive
  // everything else posts into.
  kWaitSet = 10,

  // Simulated network internals (pipes, accept queues, datagram ports).
  kSimNetwork = 20,

  // Da CaPo mailboxes between protocol modules.
  kMailbox = 30,

  // Da CaPo session state (plane pointer, error slot, resource manager).
  kSession = 40,

  // Transport ComChannel locks (tcp/ipc/dacapo tx/rx/qos serialization)
  // and the reactor/epoll bookkeeping locks.
  kChannel = 50,

  // giop::DispatchPool's band scheduler and runner table, and each
  // GiopServer's cancel bookkeeping.
  kDispatchPool = 60,

  // GIOP engine state: client demux table and send serialization, server
  // send serialization, COOL-protocol baseline.
  kEngine = 70,

  // Object-adapter servant shards.
  kAdapterShard = 80,

  // ORB-level state: connection table, naming, stubs, module registry.
  kOrb = 90,

  // Stream adapter / flow state (drives ORB calls from under its locks).
  kStream = 100,
};

constexpr int LockRankValue(LockRank r) noexcept { return static_cast<int>(r); }

constexpr const char* LockRankName(LockRank r) noexcept {
  switch (r) {
    case LockRank::kUnranked: return "kUnranked";
    case LockRank::kLeaf: return "kLeaf";
    case LockRank::kWaitSet: return "kWaitSet";
    case LockRank::kSimNetwork: return "kSimNetwork";
    case LockRank::kMailbox: return "kMailbox";
    case LockRank::kSession: return "kSession";
    case LockRank::kChannel: return "kChannel";
    case LockRank::kDispatchPool: return "kDispatchPool";
    case LockRank::kEngine: return "kEngine";
    case LockRank::kAdapterShard: return "kAdapterShard";
    case LockRank::kOrb: return "kOrb";
    case LockRank::kStream: return "kStream";
  }
  return "?";
}

}  // namespace cool

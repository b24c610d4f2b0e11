// Event-driven connection engine, the only way an ORB receives bytes. The
// Reactor owns N run-to-completion worker loops, each blocked on its own
// sim::WaitSet; every server connection read, client reply demux and server
// accept registers as a non-blocking state machine that the owning worker
// invokes whenever its source signals readiness. The thread count is flat
// in the number of connections and bindings: worker i's thread starts with
// the first registration routed to it, and there are never more than N.
//
// Dispatch contract:
//  * A registration's callback runs on exactly one worker (id % workers)
//    and never concurrently with itself — per-channel state needs no locks
//    against the reactor, only against other application threads.
//  * Callbacks must not block: they drain their source via the transport
//    Try* paths until it reports "nothing more", then return. Heavy work
//    (GIOP dispatch) is handed to the giop::DispatchPool, never run inline.
//  * Remove(id) is a barrier: it returns only once a concurrently running
//    callback for `id` has finished — except when called from inside that
//    callback itself, which unregisters without waiting (self-removal on
//    channel error is the common teardown path).
//
// Real file descriptors join the same machinery through AddFd(): a lazy
// EpollPoller thread turns edge-triggered kernel readiness into Schedule()
// posts, so sim sources and kernel fds feed identical worker loops.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread.h"
#include "sim/waitset.h"
#include "transport/epoll_poller.h"

namespace cool::transport {

class Reactor {
 public:
  using Callback = std::function<void()>;
  // Binds a readiness source to the chosen worker's wait set under the
  // assigned token (e.g. via sim::Watchable::Watch); returns false when the
  // source cannot be watched.
  using AttachFn = std::function<bool(const sim::WaitSet&, std::uint64_t)>;

  struct Options {
    // 0 = one worker per hardware thread.
    unsigned workers = 0;
    // BESS-style per-core placement: worker i is pinned to CPU i (mod the
    // core count). Combined with the fixed id -> worker mapping this keeps
    // a connection's callbacks — and therefore its channel state — on one
    // cache domain. Best-effort: a refused affinity call (restricted
    // cpuset) degrades to an unpinned worker, never an error.
    bool pin_workers = false;
  };

  // 0 = one worker per hardware thread.
  explicit Reactor(unsigned workers = 0);
  explicit Reactor(const Options& options);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Registers a source + callback. The callback starts firing as soon as
  // `attach` returns (an immediate probe harvests pre-registration state).
  Result<std::uint64_t> Add(const AttachFn& attach, Callback cb);

  // Registration without a source: fires only via Schedule(id).
  std::uint64_t AddManual(Callback cb);

  // Batched registration, phase one: allocates a contiguous id block and
  // installs the callbacks, locking each worker's registration map once
  // per train instead of once per connection. Nothing fires until the
  // matching Attach() — the caller publishes its own bookkeeping for the
  // returned ids in between (the accept-train adoption path).
  std::vector<std::uint64_t> AddBatch(std::vector<Callback> cbs);

  // Batched registration, phase two: binds the readiness source and posts
  // the immediate probe, like Add(). On failure the registration is
  // dropped.
  bool Attach(std::uint64_t id, const AttachFn& attach);

  // Registers a kernel fd (edge-triggered epoll). The fd stays owned by
  // the caller; unregister with RemoveFd before closing it.
  Result<std::uint64_t> AddFd(int fd, Callback cb);

  // Queues one callback invocation for `id` on its owning worker.
  void Schedule(std::uint64_t id);

  // Queues a callback invocation for `id` due at `when` — the reactor's
  // timer facility. Deadlines ride each worker's wait-set min-heap with
  // lazy cancellation (Remove discards pending entries), so per-connection
  // timeout bookkeeping is O(log n) and never scans.
  void ScheduleAt(std::uint64_t id, TimePoint when);

  // Unregisters `id`; barrier semantics (see file comment).
  void Remove(std::uint64_t id);
  void RemoveFd(int fd, std::uint64_t id);

  // Configured worker count. Worker i's thread starts with the first
  // registration routed to it, so a reactor with r registrations runs
  // min(r, workers()) threads.
  unsigned workers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }
  // The worker a registration's callbacks run on — fixed for the life of
  // the id (connection -> worker affinity).
  unsigned WorkerIndexFor(std::uint64_t id) const noexcept {
    return static_cast<unsigned>(id % workers_.size());
  }
  // Index of the reactor worker the calling thread is, or -1 off-worker.
  // Lets a callback assert it observes a stable worker identity.
  static int CurrentWorkerIndex() noexcept;
  std::uint64_t dispatches() const noexcept {
    return dispatches_.load(std::memory_order_relaxed);
  }

 private:
  struct Registration {
    explicit Registration(Callback f) : cb(std::move(f)) {}
    const Callback cb;
  };

  struct Worker {
    Mutex mu{LockRank::kChannel, "transport::Reactor::Worker::mu"};
    CondVar idle_cv;
    sim::WaitSet waitset;
    std::unordered_map<std::uint64_t, std::shared_ptr<Registration>> regs
        COOL_GUARDED_BY(mu);
    std::uint64_t running_id COOL_GUARDED_BY(mu) = 0;
    // Set once, when the first registration starts the thread.
    ThreadId thread_id COOL_GUARDED_BY(mu);
    unsigned index = 0;   // position in workers_ (== the pinned core)
    // Started under mu by StartLocked, joined only by the destructor.
    Thread thread;
  };

  // Starts w's thread unless it already runs (lazy start, see workers()).
  void StartLocked(Worker& w) COOL_REQUIRES(w.mu);
  void WorkerLoop(Worker& w, std::stop_token stop);
  // Clears the running marker and releases Remove() barrier waiters.
  void DrainRemovalWaiters(Worker& w);
  Worker& WorkerFor(std::uint64_t id) noexcept {
    return *workers_[id % workers_.size()];
  }
  EpollPoller* EnsureEpoll();

  const bool pin_workers_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> dispatches_{0};
  std::vector<std::unique_ptr<Worker>> workers_;

  Mutex epoll_mu_{LockRank::kChannel, "transport::Reactor::epoll_mu_"};
  std::unique_ptr<EpollPoller> epoll_ COOL_GUARDED_BY(epoll_mu_);
};

}  // namespace cool::transport

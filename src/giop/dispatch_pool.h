// Shared servant-dispatch worker pool. One pool serves every GIOP
// connection of an ORB: jobs enter the ORB's one QoS scheduler
// (common/qos_sched.h) — WFQ across the three QoS bands, deficit round
// robin across the bindings inside each band, optional CoDel AQM on the
// per-binding queues — and run on a fixed set of workers, so ten thousand
// idle connections cost zero dispatch threads and a bursty tenant cannot
// starve its neighbours (paper §4.2: the extension's QoS semantics survive
// server-side concurrency). The scheduler's fairness unit is servant
// time: the pool times every upcall, keeps a running average per binding,
// and prices the binding's jobs, queued ones included, at that average,
// so a binding whose upcalls take 200 µs spends its quantum on one job,
// not on sixteen.
// The strict-priority scan it replaced is retired; its flood-victim
// figures are recorded in BENCH_PR9.json. Each GiopServer participates as
// a DispatchRunner under a runner id; detaching a runner is a barrier that
// removes its queued jobs and waits out its in-flight upcalls, making
// connection teardown safe while the pool lives on.
#pragma once

#include <array>
#include <atomic>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/qos_sched.h"
#include "common/thread.h"
#include "giop/message.h"
#include "qos/classify.h"

namespace cool::giop {

// Default worker-pool size: one upcall thread per hardware thread.
std::size_t DefaultWorkerThreads() noexcept;

// One admitted Request on its way to a servant upcall. The ParsedMessage
// owns the transport frame; the args decoder reads straight out of it.
struct DispatchJob {
  RequestHeader header;
  ParsedMessage msg;
  // Absolute message offset of the argument bytes (the decoder position
  // right after the request header), so workers need not re-parse.
  std::size_t args_offset = 0;

  cdr::Decoder ArgsDecoder() const {
    return cdr::Decoder(msg.body().subspan(args_offset - kHeaderSize),
                        msg.header.byte_order, args_offset);
  }
};

// What the pool calls back into to run a job — a GiopServer, which owns
// the upcall and the reply send. Runners outlive their queued jobs by
// contract: detach (or close the pool) before destroying the runner.
class DispatchRunner {
 public:
  virtual ~DispatchRunner() = default;
  virtual void RunDispatchJob(const DispatchJob& job) = 0;
  // A queued job the AQM shed before it ran (CoDel decided the queue's
  // standing delay already broke the contract). Called outside the pool
  // lock; the default swallows the job silently.
  virtual void DropDispatchJob(const DispatchJob& job) { (void)job; }
};

class DispatchPool {
 public:
  struct Options {
    std::size_t workers = DefaultWorkerThreads();
    std::size_t queue_capacity = 1024;
    // CoDel AQM on the per-binding queues. Off by default: shedding a
    // dispatch surfaces as a TRANSIENT system exception at the client,
    // a policy the ORB owner opts into (README, giop knobs).
    bool codel_enabled = false;
    Duration codel_target = milliseconds(5);
    Duration codel_interval = milliseconds(100);
  };

  // Byte size of a job for rate caps (the token bucket): a floor per
  // dispatch plus its argument bytes.
  static constexpr std::size_t kJobBaseCost = 512;
  // Servant time a binding of weight 1 may spend per DRR round: a tenth
  // of the tightest latency tier (1 ms, qos::ClassifyForScheduling's
  // weight 8), so one round of a weight-8 binding fits inside its bound.
  static constexpr Duration kQuantum = microseconds(100);

  explicit DispatchPool(std::size_t workers = DefaultWorkerThreads(),
                        std::size_t queue_capacity = 1024);
  explicit DispatchPool(const Options& options);
  ~DispatchPool();

  DispatchPool(const DispatchPool&) = delete;
  DispatchPool& operator=(const DispatchPool&) = delete;

  // Attaches a new runner to this pool and returns its id for
  // Submit/CancelQueued/DetachRunner. The pool keeps state for a runner
  // only between this call and DetachRunner.
  std::uint64_t AllocRunnerId();

  // Queues a job under the runner's binding flow, in the band and with
  // the weight/rate cap of `profile` (qos::ClassifyForScheduling); blocks
  // while the queue is at capacity (connection backpressure). Returns
  // false once the pool is closed or the runner detached — the job is
  // dropped.
  bool Submit(DispatchRunner* runner, std::uint64_t runner_id,
              const qos::SchedProfile& profile, DispatchJob job);

  // Kills a queued-but-unstarted job of `runner_id`; false when no such
  // job is queued (it may be running already, or not yet submitted).
  bool CancelQueued(std::uint64_t runner_id, corba::ULong request_id);

  // Barrier: drops the runner's queued jobs, refuses new ones, and waits
  // until none of its jobs is mid-upcall. After return the pool holds no
  // reference to, and no state for, the runner. Must not be called from a
  // pool worker.
  void DetachRunner(std::uint64_t runner_id);

  // Drains queued jobs, joins the workers. Idempotent.
  void Close();

  std::size_t workers() const noexcept { return worker_count_; }
  std::uint64_t jobs_run() const noexcept {
    return jobs_run_.load(std::memory_order_relaxed);
  }
  std::uint64_t jobs_shed() const noexcept {
    return jobs_shed_.load(std::memory_order_relaxed);
  }

  // Per-band counters, sojourn percentiles and per-binding rows (High,
  // Normal, Low order), straight from the scheduler. A row's `price` is
  // what each of the binding's jobs is charged: its average servant time
  // in ns.
  std::array<sched::BandSnapshot, sched::kBands> StatsSnapshot() const;
  // Human-readable stats: a line per band, then one per binding with its
  // charged service time, in the DescribeStats idiom of the Da CaPo
  // modules.
  std::string DescribeStats() const;

 private:
  struct Entry {
    DispatchRunner* runner = nullptr;
    std::uint64_t runner_id = 0;
    sched::Band band = sched::Band::kNormal;
    DispatchJob job;
  };

  using Scheduler = sched::BandScheduler<Entry>;

  // A runner attached to the pool: the running average of its upcalls'
  // servant time, jobs of it currently mid-upcall or mid-drop (never more
  // than the queue capacity plus the workers), and whether DetachRunner
  // has begun (refuses new jobs). Kept to 16 bytes: every open connection
  // holds one.
  struct RunnerState {
    std::uint64_t service_ns = 0;  // 0 until its first upcall finishes
    std::uint32_t running = 0;
    bool detaching = false;
  };

  // One scheduler decision: at most one entry to run plus any entries the
  // AQM shed while reaching it. Neither present <=> closed and drained.
  struct Next {
    std::optional<Entry> entry;
    std::vector<Entry> dropped;
    bool HasWork() const { return entry.has_value() || !dropped.empty(); }
  };

  void WorkerLoop();
  // Pops the next decision and marks every popped runner busy, atomically
  // (the detach barrier depends on pop+mark being one step).
  Next NextDecision();
  // Marks the entry's runner idle again and wakes detach waiters. An
  // upcall's `service` time feeds the runner's and the pool's averages,
  // and the runner's average re-prices its flow.
  void DrainRunnerWaiters(const Entry& entry,
                          std::optional<Duration> service = std::nullopt);
  // What the scheduler charges each of a runner's jobs, in ns of servant
  // time: its average, else the pool's, else one quantum.
  std::uint64_t ChargeFor(const RunnerState& runner) const
      COOL_REQUIRES(mu_);

  std::size_t worker_count_ = 0;
  Options options_;
  std::atomic<std::uint64_t> jobs_run_{0};
  std::atomic<std::uint64_t> jobs_shed_{0};

  mutable Mutex mu_{LockRank::kDispatchPool, "giop::DispatchPool::mu_"};
  // Three bands, flows keyed by runner id (one flow per binding).
  Scheduler sched_ COOL_GUARDED_BY(mu_);
  bool closed_ COOL_GUARDED_BY(mu_) = false;
  CondVar job_ready_;
  CondVar job_space_;
  CondVar runner_idle_;
  // Attached runners, by id (AllocRunnerId to DetachRunner).
  std::unordered_map<std::uint64_t, RunnerState> runners_
      COOL_GUARDED_BY(mu_);
  std::uint64_t next_runner_id_ COOL_GUARDED_BY(mu_) = 1;
  // Average servant time over every binding, ns: the charge of a binding
  // with no finished upcall yet. 0 until the first upcall finishes.
  std::uint64_t service_ns_ COOL_GUARDED_BY(mu_) = 0;
  // Started in the constructor, joined only by Close().
  std::vector<Thread> workers_;
};

}  // namespace cool::giop

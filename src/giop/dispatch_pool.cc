#include "giop/dispatch_pool.h"

#include <algorithm>
#include <sstream>

namespace cool::giop {

namespace {

std::uint64_t Nanos(Duration d) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<nanoseconds>(d).count());
}

// Folds one upcall's servant time into a running average (EWMA, gain
// 1/8). In ns: µs would round the average of a short upcall to 0. A
// sample counts for at most twice the average: a worker preempted
// mid-upcall reads milliseconds for a 10 µs upcall, and uncapped, one
// such reading would overcharge the binding's next few dozen jobs; a
// binding whose upcalls really grow still gains an eighth per job. Never
// returns 0, which marks "no sample yet".
std::uint64_t Average(std::uint64_t average_ns, Duration sample) {
  const std::uint64_t ns = std::max<std::uint64_t>(Nanos(sample), 1);
  if (average_ns == 0) return ns;
  return (7 * average_ns + std::min(ns, 2 * average_ns)) / 8;
}

}  // namespace

std::size_t DefaultWorkerThreads() noexcept {
  return static_cast<std::size_t>(HardwareConcurrency());
}

DispatchPool::DispatchPool(std::size_t workers, std::size_t queue_capacity)
    : DispatchPool(Options{.workers = workers,
                           .queue_capacity = queue_capacity}) {}

DispatchPool::DispatchPool(const Options& options)
    : worker_count_(options.workers == 0 ? 1 : options.workers),
      options_(options),
      sched_(Nanos(kQuantum),
             sched::CodelParams{.enabled = options.codel_enabled,
                                .target = options.codel_target,
                                .interval = options.codel_interval}) {
  workers_.reserve(worker_count_);
  for (std::size_t i = 0; i < worker_count_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

DispatchPool::~DispatchPool() { Close(); }

bool DispatchPool::Submit(DispatchRunner* runner, std::uint64_t runner_id,
                          const qos::SchedProfile& profile, DispatchJob job) {
  MutexLock lock(mu_);
  while (!closed_ && sched_.queued() >= options_.queue_capacity) {
    // Backpressure: stall the submitting receive path (and with it the
    // connection) until a worker makes room. Blocking here is the design
    // — the submitting reactor callback is the flow-control valve, and
    // pool workers never need the reactor, so no cycle — hence the
    // explicit blocking-allowed scope for the deadlock detector.
    deadlock::ScopedBlockingAllowed allow;
    job_space_.Wait(mu_);
  }
  auto it = runners_.find(runner_id);
  if (closed_ || it == runners_.end() || it->second.detaching) return false;
  const std::size_t bytes = kJobBaseCost + job.msg.body().size();
  sched::FlowProfile flow;
  flow.weight = profile.weight;
  flow.rate_bytes_per_sec = profile.rate_bytes_per_sec;
  // One unit per job, priced at the binding's average servant time.
  sched_.Enqueue(profile.band, runner_id, flow,
                 Entry{runner, runner_id, profile.band, std::move(job)},
                 /*cost=*/1, bytes, Now());
  sched_.SetPrice(profile.band, runner_id, ChargeFor(it->second));
  job_ready_.NotifyOne();
  return true;
}

bool DispatchPool::CancelQueued(std::uint64_t runner_id,
                                corba::ULong request_id) {
  MutexLock lock(mu_);
  bool found = false;
  sched_.RemoveIf([&](std::uint64_t, const Entry& e) {
    if (found || e.runner_id != runner_id ||
        e.job.header.request_id != request_id) {
      return false;
    }
    found = true;
    return true;
  });
  if (!found) return false;
  job_space_.NotifyOne();
  return true;
}

std::uint64_t DispatchPool::AllocRunnerId() {
  MutexLock lock(mu_);
  const std::uint64_t id = next_runner_id_++;
  runners_.emplace(id, RunnerState{});
  return id;
}

void DispatchPool::DetachRunner(std::uint64_t runner_id) {
  MutexLock lock(mu_);
  auto it = runners_.find(runner_id);
  if (it == runners_.end()) return;
  if (!it->second.detaching) {
    it->second.detaching = true;  // refuse the Submits that race the detach
    const std::size_t removed = sched_.RemoveIf(
        [&](std::uint64_t flow, const Entry&) { return flow == runner_id; });
    for (std::size_t b = 0; b < sched::kBands; ++b) {
      sched_.RemoveFlow(static_cast<sched::Band>(b), runner_id);
    }
    for (std::size_t i = 0; i < removed; ++i) job_space_.NotifyOne();
  }
  for (;;) {
    it = runners_.find(runner_id);
    if (it == runners_.end()) return;  // a concurrent detach finished it
    if (it->second.running == 0) break;
    runner_idle_.Wait(mu_);
  }
  runners_.erase(it);
}

DispatchPool::Next DispatchPool::NextDecision() {
  MutexLock lock(mu_);
  for (;;) {
    Next out;
    const TimePoint now = Now();
    std::vector<Scheduler::Served> drops;
    std::optional<Scheduler::Served> served =
        sched_.Dequeue(now, &drops, /*drain=*/closed_);
    // Pop+mark is one step under mu_ (the detach barrier depends on it).
    // Queued jobs belong to attached runners: DetachRunner removes a
    // runner's jobs before it erases the runner.
    for (Scheduler::Served& d : drops) {
      ++runners_.find(d.value.runner_id)->second.running;
      job_space_.NotifyOne();
      out.dropped.push_back(std::move(d.value));
    }
    if (served.has_value()) {
      ++runners_.find(served->value.runner_id)->second.running;
      job_space_.NotifyOne();
      out.entry = std::move(served->value);
    }
    if (out.HasWork()) return out;
    if (closed_ && sched_.empty()) return out;  // closed + drained: exit
    if (std::optional<TimePoint> ready = sched_.NextReadyTime(now)) {
      // Queued work gated on a token bucket: sleep until the grant.
      job_ready_.WaitUntil(mu_, *ready);
    } else {
      job_ready_.Wait(mu_);
    }
  }
}

std::uint64_t DispatchPool::ChargeFor(const RunnerState& runner) const {
  if (runner.service_ns != 0) return runner.service_ns;
  if (service_ns_ != 0) return service_ns_;
  return Nanos(kQuantum);  // nothing has run yet
}

void DispatchPool::DrainRunnerWaiters(const Entry& entry,
                                      std::optional<Duration> service) {
  MutexLock lock(mu_);
  RunnerState& runner = runners_.find(entry.runner_id)->second;
  if (service.has_value()) {
    runner.service_ns = Average(runner.service_ns, *service);
    service_ns_ = Average(service_ns_, *service);
    // Re-prices the jobs the binding has queued in this band too.
    sched_.SetPrice(entry.band, entry.runner_id, runner.service_ns);
  }
  if (--runner.running == 0) runner_idle_.NotifyAll();
}

void DispatchPool::WorkerLoop() {
  for (;;) {
    Next next = NextDecision();
    // Shed jobs first: the runner owes the client a TRANSIENT before any
    // later job of the same connection replies. Outside mu_ — the drop
    // callback sends on the connection (rank kEngine > kDispatchPool).
    for (Entry& shed : next.dropped) {
      shed.runner->DropDispatchJob(shed.job);
      jobs_shed_.fetch_add(1, std::memory_order_relaxed);
      DrainRunnerWaiters(shed);
    }
    if (!next.entry.has_value()) {
      if (next.dropped.empty()) return;  // closed + drained
      continue;
    }
    const TimePoint start = Now();
    {
      // Servant upcalls share this fixed worker pool: an unbounded wait
      // in one starves every queued dispatch, so the detector flags them.
      deadlock::ScopedContext ctx(deadlock::Context::kDispatchUpcall);
      next.entry->runner->RunDispatchJob(next.entry->job);
    }
    const Duration service = Now() - start;
    jobs_run_.fetch_add(1, std::memory_order_relaxed);
    DrainRunnerWaiters(*next.entry, service);
  }
}

std::array<sched::BandSnapshot, sched::kBands> DispatchPool::StatsSnapshot()
    const {
  MutexLock lock(mu_);
  return sched_.Snapshot();
}

std::string DispatchPool::DescribeStats() const {
  std::ostringstream os;
  for (const sched::BandSnapshot& cls : StatsSnapshot()) {
    os << "class " << sched::BandName(cls.band) << ": queued=" << cls.queued
       << " enqueued=" << cls.enqueued << " dispatched=" << cls.dequeued
       << " dropped=" << cls.dropped << " sojourn_us{p50=" << cls.sojourn_p50_us
       << " p99=" << cls.sojourn_p99_us << " p99.9=" << cls.sojourn_p999_us
       << " max=" << cls.sojourn_max_us << "} bindings=" << cls.flows.size()
       << "\n";
    for (const sched::FlowSnapshot& flow : cls.flows) {
      os << "  binding " << flow.id << ": queued=" << flow.queued
         << " dispatched=" << flow.dequeued << " dropped=" << flow.dropped
         << " service_us=" << flow.price / 1000 << "\n";
    }
  }
  return os.str();
}

void DispatchPool::Close() {
  {
    MutexLock lock(mu_);
    if (closed_) return;
    closed_ = true;
    job_ready_.NotifyAll();
    job_space_.NotifyAll();
  }
  // Workers drain the queue (NextDecision keeps popping after close, with
  // shaping and AQM bypassed) and exit; join outside the lock so in-flight
  // upcalls can finish.
  for (Thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

}  // namespace cool::giop

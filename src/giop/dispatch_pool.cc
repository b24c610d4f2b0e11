#include "giop/dispatch_pool.h"

#include <sstream>

namespace cool::giop {

DispatchClass ClassifyQoS(
    const std::vector<qos::QoSParameter>& qos_params) noexcept {
  // Band projection of the shared classifier; the weight/rate dimensions
  // only matter once the hierarchical scheduler consumes them.
  switch (qos::ClassifyForScheduling(qos_params).band) {
    case qos::SchedProfile::Band::kHigh:
      return DispatchClass::kHigh;
    case qos::SchedProfile::Band::kLow:
      return DispatchClass::kLow;
    case qos::SchedProfile::Band::kNormal:
      break;
  }
  return DispatchClass::kNormal;
}

namespace {

qos::SchedProfile ProfileForClass(DispatchClass cls) {
  qos::SchedProfile profile;
  switch (cls) {
    case DispatchClass::kHigh:
      profile.band = qos::SchedProfile::Band::kHigh;
      break;
    case DispatchClass::kLow:
      profile.band = qos::SchedProfile::Band::kLow;
      break;
    case DispatchClass::kNormal:
      profile.band = qos::SchedProfile::Band::kNormal;
      break;
  }
  return profile;
}

std::size_t BandIndex(qos::SchedProfile::Band band) {
  return static_cast<std::size_t>(band);
}

}  // namespace

std::size_t DefaultWorkerThreads() noexcept {
  return static_cast<std::size_t>(HardwareConcurrency());
}

std::uint64_t DispatchPool::AllocRunnerId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

DispatchPool::DispatchPool(std::size_t workers, std::size_t queue_capacity) {
  options_.workers = workers;
  options_.queue_capacity = queue_capacity;
  Start();
}

DispatchPool::DispatchPool(const Options& options) : options_(options) {
  Start();
}

sched::ClassOptions DispatchPool::BandOptions(DispatchClass cls) const {
  static constexpr const char* kNames[kDispatchClasses] = {"high", "normal",
                                                           "low"};
  const auto i = static_cast<std::size_t>(cls);
  sched::ClassOptions opts;
  opts.name = kNames[i];
  opts.weight = options_.class_weights[i];
  opts.quantum_bytes = options_.quantum_bytes;
  opts.codel.enabled = options_.codel_enabled;
  opts.codel.target = options_.codel_target;
  opts.codel.interval = options_.codel_interval;
  return opts;
}

void DispatchPool::Start() {
  worker_count_ = options_.workers == 0 ? 1 : options_.workers;
  {
    MutexLock lock(mu_);
    // Band order is tie-break order: simultaneous activations at equal
    // virtual time serve High before Normal before Low, preserving the
    // strict-priority intuition for newly-queued work.
    cls_id_[0] = tree_.AddClass(Tree::kRoot, BandOptions(DispatchClass::kHigh));
    cls_id_[1] =
        tree_.AddClass(Tree::kRoot, BandOptions(DispatchClass::kNormal));
    cls_id_[2] = tree_.AddClass(Tree::kRoot, BandOptions(DispatchClass::kLow));
  }
  workers_.reserve(worker_count_);
  for (std::size_t i = 0; i < worker_count_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

DispatchPool::~DispatchPool() { Close(); }

bool DispatchPool::Submit(DispatchRunner* runner, std::uint64_t runner_id,
                          const qos::SchedProfile& profile, DispatchJob job) {
  MutexLock lock(mu_);
  while (!closed_ && queued_ >= options_.queue_capacity) {
    // Backpressure: stall the submitting receive path (and with it the
    // connection) until a worker makes room. Blocking here is the design
    // — the submitting reactor callback is the flow-control valve, and
    // pool workers never need the reactor, so no cycle — hence the
    // explicit blocking-allowed scope for the deadlock detector.
    deadlock::ScopedBlockingAllowed allow;
    job_space_.Wait(mu_);
  }
  if (closed_ || detached_.contains(runner_id)) return false;
  Entry entry;
  entry.runner = runner;
  entry.runner_id = runner_id;
  entry.job = std::move(job);
  const std::size_t cost = kJobBaseCost + entry.job.msg.body().size();
  sched::FlowProfile flow;
  flow.weight = profile.weight;
  flow.rate_bytes_per_sec = profile.rate_bytes_per_sec;
  tree_.Enqueue(cls_id_[BandIndex(profile.band)], runner_id, flow,
                std::move(entry), cost, Now());
  ++queued_;
  job_ready_.NotifyOne();
  return true;
}

bool DispatchPool::Submit(DispatchRunner* runner, std::uint64_t runner_id,
                          DispatchClass cls, DispatchJob job) {
  return Submit(runner, runner_id, ProfileForClass(cls), std::move(job));
}

bool DispatchPool::CancelQueued(std::uint64_t runner_id,
                                corba::ULong request_id) {
  MutexLock lock(mu_);
  bool found = false;
  tree_.RemoveIf([&](Tree::ClassId, std::uint64_t, const Entry& e) {
    if (found || e.runner_id != runner_id ||
        e.job.header.request_id != request_id) {
      return false;
    }
    found = true;
    return true;
  });
  if (!found) return false;
  --queued_;
  job_space_.NotifyOne();
  return true;
}

void DispatchPool::DetachRunner(std::uint64_t runner_id) {
  MutexLock lock(mu_);
  detached_.insert(runner_id);
  const std::size_t removed =
      tree_.RemoveIf([&](Tree::ClassId, std::uint64_t, const Entry& e) {
        return e.runner_id == runner_id;
      });
  for (std::size_t i = 0; i < kDispatchClasses; ++i) {
    tree_.RemoveFlow(cls_id_[i], runner_id);
  }
  for (std::size_t i = 0; i < removed; ++i) {
    --queued_;
    job_space_.NotifyOne();
  }
  while (running_.contains(runner_id)) {
    runner_idle_.Wait(mu_);
  }
}

void DispatchPool::SetClassWeight(DispatchClass cls, std::uint32_t weight) {
  MutexLock lock(mu_);
  options_.class_weights[static_cast<std::size_t>(cls)] =
      weight == 0 ? 1 : weight;
  tree_.SetClassOptions(cls_id_[static_cast<std::size_t>(cls)],
                        BandOptions(cls), Now());
}

void DispatchPool::SetCodel(bool enabled, Duration target, Duration interval) {
  MutexLock lock(mu_);
  options_.codel_enabled = enabled;
  options_.codel_target = target;
  options_.codel_interval = interval;
  for (std::size_t i = 0; i < kDispatchClasses; ++i) {
    const auto cls = static_cast<DispatchClass>(i);
    tree_.SetClassOptions(cls_id_[i], BandOptions(cls), Now());
  }
  job_ready_.NotifyOne();
}

DispatchPool::Next DispatchPool::NextDecision() {
  MutexLock lock(mu_);
  for (;;) {
    Next out;
    const TimePoint now = Now();
    std::vector<Tree::Served> drops;
    std::optional<Tree::Served> served =
        tree_.Dequeue(now, &drops, /*drain=*/closed_);
    for (Tree::Served& d : drops) {
      ++running_[d.value.runner_id];  // pop+mark atomic: detach barrier
      --queued_;
      job_space_.NotifyOne();
      out.dropped.push_back(std::move(d.value));
    }
    if (served.has_value()) {
      ++running_[served->value.runner_id];
      --queued_;
      job_space_.NotifyOne();
      out.entry = std::move(served->value);
    }
    if (out.HasWork()) return out;
    if (closed_ && tree_.empty()) return out;  // closed + drained: exit
    if (std::optional<TimePoint> ready = tree_.NextReadyTime(now)) {
      // Queued work gated on a token bucket: sleep until the grant.
      job_ready_.WaitUntil(mu_, *ready);
    } else {
      job_ready_.Wait(mu_);
    }
  }
}

void DispatchPool::DrainRunnerWaiters(std::uint64_t runner_id) {
  MutexLock lock(mu_);
  auto it = running_.find(runner_id);
  if (it != running_.end() && --it->second == 0) running_.erase(it);
  runner_idle_.NotifyAll();
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
      DrainRunnerWaiters(shed.runner_id);
    }
    if (!next.entry.has_value()) {
      if (next.dropped.empty()) return;  // closed + drained
      continue;
    }
    {
      // Servant upcalls share this fixed worker pool: an unbounded wait
      // in one starves every queued dispatch, so the detector flags them.
      deadlock::ScopedContext ctx(deadlock::Context::kDispatchUpcall);
      next.entry->runner->RunDispatchJob(next.entry->job);
    }
    jobs_run_.fetch_add(1, std::memory_order_relaxed);
    DrainRunnerWaiters(next.entry->runner_id);
  }
}

std::array<DispatchClassStats, kDispatchClasses> DispatchPool::StatsSnapshot()
    const {
  std::array<DispatchClassStats, kDispatchClasses> out;
  MutexLock lock(mu_);
  std::vector<sched::ClassSnapshot> snap = tree_.Snapshot();
  for (std::size_t i = 0; i < kDispatchClasses; ++i) {
    const sched::ClassSnapshot& cls = snap[cls_id_[i]];
    out[i].name = cls.name;
    out[i].queued = cls.queued;
    out[i].enqueued = cls.enqueued;
    out[i].dispatched = cls.dequeued;
    out[i].dropped = cls.dropped;
    out[i].sojourn_p50_us = cls.sojourn_p50_us;
    out[i].sojourn_p99_us = cls.sojourn_p99_us;
    out[i].sojourn_p999_us = cls.sojourn_p999_us;
    out[i].sojourn_max_us = cls.sojourn_max_us;
    out[i].bindings = cls.flows;
  }
  return out;
}

std::string DispatchPool::DescribeStats() const {
  const std::array<DispatchClassStats, kDispatchClasses> stats =
      StatsSnapshot();
  std::ostringstream os;
  for (const DispatchClassStats& cls : stats) {
    os << "class " << cls.name << ": queued=" << cls.queued
       << " enqueued=" << cls.enqueued << " dispatched=" << cls.dispatched
       << " dropped=" << cls.dropped << " sojourn_us{p50=" << cls.sojourn_p50_us
       << " p99=" << cls.sojourn_p99_us << " p99.9=" << cls.sojourn_p999_us
       << " max=" << cls.sojourn_max_us << "} bindings=" << cls.bindings.size()
       << "\n";
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

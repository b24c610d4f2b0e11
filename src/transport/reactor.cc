#include "transport/reactor.h"

#include <array>
#include <utility>

namespace cool::transport {

namespace {
// Worker identity of the calling thread; -1 outside every reactor.
thread_local int tl_worker_index = -1;
}  // namespace

Reactor::Reactor(unsigned workers) : Reactor(Options{.workers = workers}) {}

Reactor::Reactor(const Options& options) : pin_workers_(options.pin_workers) {
  const unsigned n =
      options.workers == 0 ? HardwareConcurrency() : options.workers;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->index = i;
  }
}

Reactor::~Reactor() {
  for (auto& w : workers_) w->thread.request_stop();
  for (auto& w : workers_) w->waitset.Close();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // epoll_'s destructor stops and joins the forwarder thread.
}

void Reactor::StartLocked(Worker& w) {
  if (w.thread.joinable()) return;
  w.thread = Thread(
      [this, worker = &w](std::stop_token stop) {
        if (pin_workers_) PinThisThreadToCore(worker->index);
        WorkerLoop(*worker, stop);
      });
  w.thread_id = w.thread.get_id();
}

int Reactor::CurrentWorkerIndex() noexcept { return tl_worker_index; }

void Reactor::WorkerLoop(Worker& w, std::stop_token stop) {
  tl_worker_index = static_cast<int>(w.index);
  // Burst harvest (the packet-train idiom on the event path): one wait-set
  // wakeup delivers up to 64 coalesced readiness events, amortizing the
  // wait/lock round trip across the whole train at high connection counts.
  std::array<sim::WaitSet::ReadyEvent, 64> events;
  while (!stop.stop_requested()) {
    const std::size_t n = w.waitset.Wait(events, seconds(60));
    if (stop.stop_requested()) return;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].token;
      std::shared_ptr<Registration> reg;
      {
        MutexLock lock(w.mu);
        const auto it = w.regs.find(id);
        if (it == w.regs.end()) continue;  // removed after signalling
        reg = it->second;
        w.running_id = id;
      }
      dispatches_.fetch_add(1, std::memory_order_relaxed);
      {
        // Registered callbacks run to completion on this shared worker:
        // mark the scope so unbounded blocking waits inside it are
        // reported by the deadlock detector (DESIGN.md §11).
        deadlock::ScopedContext ctx(deadlock::Context::kReactorCallback);
        reg->cb();
      }
      DrainRemovalWaiters(w);
    }
  }
}

void Reactor::DrainRemovalWaiters(Worker& w) {
  MutexLock lock(w.mu);
  w.running_id = 0;
  w.idle_cv.NotifyAll();
}

Result<std::uint64_t> Reactor::Add(const AttachFn& attach, Callback cb) {
  const std::uint64_t id = AddManual(std::move(cb));
  Worker& w = WorkerFor(id);
  if (!attach(w.waitset, id)) {
    Remove(id);
    return Status(
        UnsupportedError("readiness source cannot be watched"));
  }
  return id;
}

std::uint64_t Reactor::AddManual(Callback cb) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Worker& w = WorkerFor(id);
  {
    MutexLock lock(w.mu);
    w.regs.emplace(id, std::make_shared<Registration>(std::move(cb)));
    StartLocked(w);
  }
  w.waitset.Add(id);
  return id;
}

std::vector<std::uint64_t> Reactor::AddBatch(std::vector<Callback> cbs) {
  std::vector<std::uint64_t> ids(cbs.size(), 0);
  if (cbs.empty()) return ids;
  const std::uint64_t base =
      next_id_.fetch_add(cbs.size(), std::memory_order_relaxed);
  for (std::size_t i = 0; i < cbs.size(); ++i) ids[i] = base + i;
  // A contiguous id block deals round-robin across workers, so each
  // worker's map is locked once and takes ~train/workers inserts.
  const std::size_t n_workers = workers_.size();
  for (std::size_t w = 0; w < n_workers && w < cbs.size(); ++w) {
    Worker& worker = *workers_[(base + w) % n_workers];
    MutexLock lock(worker.mu);
    for (std::size_t i = w; i < cbs.size(); i += n_workers) {
      worker.regs.emplace(
          ids[i], std::make_shared<Registration>(std::move(cbs[i])));
    }
    StartLocked(worker);
  }
  return ids;
}

bool Reactor::Attach(std::uint64_t id, const AttachFn& attach) {
  Worker& w = WorkerFor(id);
  w.waitset.Add(id);
  if (attach(w.waitset, id)) return true;
  Remove(id);
  return false;
}

Result<std::uint64_t> Reactor::AddFd(int fd, Callback cb) {
  EpollPoller* poller = EnsureEpoll();
  if (poller == nullptr || !poller->valid()) {
    return Status(UnavailableError("epoll poller unavailable"));
  }
  const std::uint64_t id = AddManual(std::move(cb));
  const Status watched = poller->Watch(fd, id);
  if (!watched.ok()) {
    Remove(id);
    return watched;
  }
  return id;
}

void Reactor::Schedule(std::uint64_t id) {
  if (id == 0) return;
  WorkerFor(id).waitset.Post(id);
}

void Reactor::ScheduleAt(std::uint64_t id, TimePoint when) {
  if (id == 0) return;
  WorkerFor(id).waitset.PostAt(id, when);
}

void Reactor::Remove(std::uint64_t id) {
  if (id == 0) return;
  Worker& w = WorkerFor(id);
  w.waitset.Remove(id);
  MutexLock lock(w.mu);
  w.regs.erase(id);
  if (ThisThreadId() == w.thread_id) return;  // self-removal from callback
  while (w.running_id == id) w.idle_cv.Wait(w.mu);
}

void Reactor::RemoveFd(int fd, std::uint64_t id) {
  {
    MutexLock lock(epoll_mu_);
    if (epoll_ != nullptr) epoll_->Unwatch(fd);
  }
  Remove(id);
}

EpollPoller* Reactor::EnsureEpoll() {
  MutexLock lock(epoll_mu_);
  if (epoll_ == nullptr) {
    epoll_ = std::make_unique<EpollPoller>(
        [this](std::uint64_t token) { Schedule(token); });
  }
  return epoll_.get();
}

}  // namespace cool::transport

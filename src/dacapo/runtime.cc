#include "dacapo/runtime.h"

#include <algorithm>

#include "common/logging.h"

namespace cool::dacapo {

ModuleChain::ModuleChain(std::string name,
                         std::vector<std::unique_ptr<Module>> modules,
                         std::shared_ptr<PacketBudget> budget)
    : name_(std::move(name)),
      budget_(std::move(budget)),
      modules_(std::move(modules)) {
  ports_.reserve(modules_.size());
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    ports_.push_back(std::make_unique<Port>(this, i));
  }
  stall_.resize(modules_.size());
  last_tick_.resize(modules_.size());
  walking_.assign(modules_.size(), 0);
  popped_.reserve(PacketBatch::kCapacity);
}

ModuleChain::~ModuleChain() { Stop(); }

Status ModuleChain::Start() {
  if (modules_.empty()) {
    return FailedPreconditionError("empty module chain");
  }
  if (started_.exchange(true)) {
    return FailedPreconditionError("chain already started");
  }
  engine_ = Thread([this](std::stop_token st) { RunEngine(st); });
  return Status::Ok();
}

void ModuleChain::Stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  mailbox_.Close();
  engine_.request_stop();
  if (engine_.joinable()) engine_.join();
}

bool ModuleChain::InjectDown(PacketPtr pkt) {
  if (modules_.empty() || stopped_.load()) return false;
  return mailbox_.PushDown(std::move(pkt), 0);
}

bool ModuleChain::InjectDownBatch(std::vector<PacketPtr>& pkts) {
  if (modules_.empty() || stopped_.load()) {
    pkts.clear();
    return false;
  }
  return mailbox_.PushDownBatch(pkts, 0);
}

void ModuleChain::InjectUp(PacketPtr pkt) {
  if (modules_.empty() || stopped_.load()) return;
  mailbox_.PushUp(std::move(pkt), modules_.size() - 1);
}

void ModuleChain::InjectControlUp(ControlMsg msg) {
  if (modules_.empty() || stopped_.load()) return;
  mailbox_.PushControl(Direction::kUp, std::move(msg), modules_.size() - 1);
}

void ModuleChain::InjectControlDown(ControlMsg msg) {
  if (modules_.empty() || stopped_.load()) return;
  mailbox_.PushControl(Direction::kDown, std::move(msg), 0);
}

std::vector<std::string> ModuleChain::DescribeModules() const {
  std::vector<std::string> out;
  out.reserve(modules_.size());
  for (const auto& m : modules_) {
    std::string line(m->name());
    const std::string stats = m->DescribeStats();
    if (!stats.empty()) {
      line += "{" + stats + "}";
    }
    out.push_back(std::move(line));
  }
  return out;
}

void ModuleChain::DeliverUpSink(PacketPtr pkt) {
  if (up_sink_) {
    up_sink_(std::move(pkt));
    return;
  }
  COOL_LOG(kWarn, "dacapo")
      << name_ << ": packet forwarded past top module dropped";
}

// --- thread-safe Port (OnStart/OnStop captures, T receive thread) ----------

void ModuleChain::Port::ForwardUp(PacketPtr pkt) {
  if (index_ == 0) {
    chain_->DeliverUpSink(std::move(pkt));
    return;
  }
  chain_->mailbox_.PushUp(std::move(pkt), index_ - 1);
}

void ModuleChain::Port::ForwardDown(PacketPtr pkt) {
  if (index_ + 1 >= chain_->modules_.size()) {
    COOL_LOG(kWarn, "dacapo")
        << chain_->name_ << ": packet forwarded past bottom module dropped";
    return;
  }
  chain_->mailbox_.PushDown(std::move(pkt), index_ + 1);
}

void ModuleChain::Port::ForwardUpBatch(std::vector<PacketPtr>& pkts) {
  if (pkts.empty()) return;
  if (index_ == 0) {
    // The up-sink is per-packet by contract; the batch saving was already
    // realized on the mailbox hop below this point.
    for (auto& p : pkts) chain_->DeliverUpSink(std::move(p));
    pkts.clear();
    return;
  }
  chain_->mailbox_.PushUpBatch(pkts, index_ - 1);
}

void ModuleChain::Port::ForwardDownBatch(std::vector<PacketPtr>& pkts) {
  if (pkts.empty()) return;
  if (index_ + 1 >= chain_->modules_.size()) {
    COOL_LOG(kWarn, "dacapo")
        << chain_->name_ << ": " << pkts.size()
        << " packet(s) forwarded past bottom module dropped";
    pkts.clear();
    return;
  }
  chain_->mailbox_.PushDownBatch(pkts, index_ + 1);
}

void ModuleChain::Port::ControlUp(ControlMsg msg) {
  if (index_ == 0) {
    if (chain_->control_sink_) chain_->control_sink_(std::move(msg));
    return;
  }
  chain_->mailbox_.PushControl(Direction::kUp, std::move(msg), index_ - 1);
}

void ModuleChain::Port::ControlDown(ControlMsg msg) {
  if (index_ + 1 >= chain_->modules_.size()) return;  // consumed at bottom
  chain_->mailbox_.PushControl(Direction::kDown, std::move(msg), index_ + 1);
}

// --- BurstPort (engine thread, synchronous run-to-completion) --------------

void ModuleChain::BurstPort::ForwardUp(PacketPtr pkt) {
  up_.push_back(std::move(pkt));
  if (up_.size() >= PacketBatch::kCapacity) FlushUp();
}

void ModuleChain::BurstPort::ForwardDown(PacketPtr pkt) {
  down_.push_back(std::move(pkt));
  if (down_.size() >= PacketBatch::kCapacity) FlushDown();
}

void ModuleChain::BurstPort::ForwardUpBatch(std::vector<PacketPtr>& pkts) {
  if (pkts.empty()) return;
  if (up_.empty()) {
    up_.swap(pkts);
  } else {
    for (auto& p : pkts) up_.push_back(std::move(p));
    pkts.clear();
  }
  FlushUp();
}

void ModuleChain::BurstPort::ForwardDownBatch(std::vector<PacketPtr>& pkts) {
  if (pkts.empty()) return;
  if (down_.empty()) {
    down_.swap(pkts);
  } else {
    for (auto& p : pkts) down_.push_back(std::move(p));
    pkts.clear();
  }
  FlushDown();
}

void ModuleChain::BurstPort::ControlUp(ControlMsg msg) {
  Flush();  // control may not overtake data already emitted through us
  chain_->RouteControlUpFrom(index_, std::move(msg));
}

void ModuleChain::BurstPort::ControlDown(ControlMsg msg) {
  Flush();
  if (index_ + 1 >= chain_->modules_.size()) return;  // consumed at bottom
  chain_->WalkControl(Direction::kDown, index_ + 1, std::move(msg));
}

void ModuleChain::BurstPort::WaitBudget(Duration d) {
  // Push out whatever this module already emitted (their bytes credit the
  // budget once the bottom releases them), let the engine service
  // up-traffic (ACKs opening windows below), then back off.
  Flush();
  chain_->PumpWhileWaiting();
  PreciseSleep(d);
}

void ModuleChain::BurstPort::Flush() {
  FlushDown();
  FlushUp();
}

void ModuleChain::BurstPort::FlushDown() {
  if (down_.empty()) return;
  std::vector<PacketPtr> local;
  local.swap(down_);
  chain_->WalkDown(index_ + 1, local);
}

void ModuleChain::BurstPort::FlushUp() {
  if (up_.empty()) return;
  std::vector<PacketPtr> local;
  local.swap(up_);
  if (index_ == 0) {
    for (auto& p : local) chain_->DeliverUpSink(std::move(p));
    return;
  }
  chain_->WalkUp(index_ - 1, local);
}

// --- engine ---------------------------------------------------------------

void ModuleChain::WalkDown(std::size_t index, std::vector<PacketPtr>& pkts) {
  if (pkts.empty()) return;
  if (index >= modules_.size()) {
    COOL_LOG(kWarn, "dacapo")
        << name_ << ": " << pkts.size()
        << " packet(s) forwarded past bottom module dropped";
    pkts.clear();
    return;
  }
  auto& stall = stall_[index];
  if (!stall.empty() || walking_[index]) {
    // FIFO: new down-traffic may not overtake packets already stalled at
    // (or in flight through) this module.
    for (auto& p : pkts) stall.push_back(std::move(p));
    pkts.clear();
    return;
  }
  Module& m = *modules_[index];
  walking_[index] = 1;
  std::size_t cursor = 0;
  while (cursor < pkts.size() && m.ReadyForDown()) {
    PacketBatch batch;
    while (cursor < pkts.size() && !batch.full()) {
      batch.PushBack(std::move(pkts[cursor++]));
    }
    BurstPort port(this, index);
    m.ProcessBurst(Direction::kDown, batch, port);
    port.Flush();
    if (!batch.empty()) {
      // Truncated burst: the unconsumed tail stalls, FIFO ahead of
      // everything that arrives later.
      for (auto& p : batch) stall.push_back(std::move(p));
      batch.Clear();
      break;
    }
  }
  walking_[index] = 0;
  for (; cursor < pkts.size(); ++cursor) {
    stall.push_back(std::move(pkts[cursor]));
  }
  pkts.clear();
}

void ModuleChain::WalkUp(std::size_t index, std::vector<PacketPtr>& pkts) {
  if (pkts.empty()) return;
  if (index >= modules_.size()) {
    pkts.clear();
    return;
  }
  Module& m = *modules_[index];
  std::size_t cursor = 0;
  while (cursor < pkts.size()) {
    PacketBatch batch;
    while (cursor < pkts.size() && !batch.full()) {
      batch.PushBack(std::move(pkts[cursor++]));
    }
    BurstPort port(this, index);
    m.ProcessBurst(Direction::kUp, batch, port);
    port.Flush();
    if (!batch.empty()) {
      // Up bursts must be consumed in full (no flow control upward).
      COOL_LOG(kWarn, "dacapo")
          << name_ << "/" << m.name() << ": " << batch.size()
          << " unconsumed up packet(s) dropped";
      batch.Clear();
    }
  }
  pkts.clear();
}

void ModuleChain::WalkControl(Direction dir, std::size_t index,
                              ControlMsg msg) {
  if (index >= modules_.size()) return;
  BurstPort port(this, index);
  modules_[index]->HandleControl(dir, std::move(msg), port);
  port.Flush();
}

void ModuleChain::RouteControlUpFrom(std::size_t index, ControlMsg msg) {
  if (index == 0) {
    if (control_sink_) control_sink_(std::move(msg));
    return;
  }
  WalkControl(Direction::kUp, index - 1, std::move(msg));
}

void ModuleChain::DrainStalls() {
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    auto& stall = stall_[i];
    if (stall.empty() || walking_[i] || !modules_[i]->ReadyForDown()) {
      continue;
    }
    std::vector<PacketPtr> run;
    run.reserve(stall.size());
    while (!stall.empty()) {
      run.push_back(std::move(stall.front()));
      stall.pop_front();
    }
    WalkDown(i, run);
  }
}

bool ModuleChain::StallsEmpty() const {
  for (const auto& s : stall_) {
    if (!s.empty()) return false;
  }
  return true;
}

void ModuleChain::ServiceTicks() {
  const TimePoint now = Now();
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    const auto interval = modules_[i]->TickInterval();
    if (!interval.has_value()) continue;
    if (now - last_tick_[i] < *interval) continue;
    BurstPort port(this, i);
    modules_[i]->OnTick(port);
    port.Flush();
    last_tick_[i] = Now();
  }
}

Duration ModuleChain::PopWait() const {
  Duration wait = milliseconds(50);
  for (const auto& m : modules_) {
    if (const auto interval = m->TickInterval();
        interval.has_value() && *interval < wait) {
      wait = *interval;
    }
  }
  return wait;
}

void ModuleChain::DispatchPopped(std::vector<Mailbox::PopResult>& popped,
                                 std::vector<PacketPtr>& run) {
  std::size_t i = 0;
  while (i < popped.size()) {
    auto& r = popped[i];
    if (r.kind == Mailbox::PopResult::Kind::kControl) {
      WalkControl(r.control_dir, r.control_origin, std::move(r.control));
      ++i;
      continue;
    }
    if (r.kind != Mailbox::PopResult::Kind::kData) {
      ++i;  // PopBatch reports timeout/closed via its status, not items
      continue;
    }
    const Direction dir = r.data.dir;
    const std::size_t origin = r.data.origin;
    run.clear();
    while (i < popped.size() &&
           popped[i].kind == Mailbox::PopResult::Kind::kData &&
           popped[i].data.dir == dir && popped[i].data.origin == origin) {
      run.push_back(std::move(popped[i].data.pkt));
      ++i;
    }
    if (dir == Direction::kDown) {
      WalkDown(origin, run);
    } else {
      WalkUp(origin, run);
    }
  }
}

void ModuleChain::PumpWhileWaiting() {
  // Service control and up-traffic only (never new down-data: the waiter
  // is mid-burst on the down path), then re-feed any stalls that opened.
  // Local scratch: the engine's popped_ may be mid-iteration above us.
  std::vector<Mailbox::PopResult> popped;
  const auto st = mailbox_.PopBatch(/*accept_down=*/false,
                                    PacketBatch::kCapacity, Duration{}, popped);
  if (st == Mailbox::BatchStatus::kItems) {
    std::vector<PacketPtr> run;
    DispatchPopped(popped, run);
  }
  DrainStalls();
}

void ModuleChain::RunEngine(std::stop_token stop) {
  std::size_t started_count = 0;
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    if (Status s = modules_[i]->OnStart(*ports_[i]); !s.ok()) {
      COOL_LOG(kError, "dacapo")
          << name_ << "/" << modules_[i]->name() << " failed to start: " << s;
      ControlMsg err;
      err.kind = ControlMsg::Kind::kError;
      err.text = std::string(modules_[i]->name()) + ": " + s.ToString();
      RouteControlUpFrom(i, std::move(err));
      // A chain with a hole in it cannot carry traffic: wind down what
      // already started and refuse service (injection fails from here on).
      mailbox_.Close();
      for (std::size_t j = 0; j < started_count; ++j) {
        modules_[j]->OnStop(*ports_[j]);
      }
      return;
    }
    ++started_count;
    last_tick_[i] = Now();
  }

  std::vector<PacketPtr> run;
  while (!stop.stop_requested()) {
    DrainStalls();
    // While anything is stalled the engine accepts no new down-data, so
    // stalled packets stay FIFO ahead of the mailbox.
    const bool accept_down = StallsEmpty();
    const auto st =
        mailbox_.PopBatch(accept_down, PacketBatch::kCapacity, PopWait(),
                          popped_);
    if (st == Mailbox::BatchStatus::kClosed) break;
    if (st == Mailbox::BatchStatus::kItems) {
      DispatchPopped(popped_, run);
    }
    // Timer service even under continuous traffic.
    ServiceTicks();
  }

  for (std::size_t i = 0; i < modules_.size(); ++i) {
    modules_[i]->OnStop(*ports_[i]);
  }
}

}  // namespace cool::dacapo

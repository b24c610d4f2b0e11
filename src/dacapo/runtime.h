// Module-graph runtime: instantiates a configured chain of modules and
// drives it with one run-to-completion engine thread (BESS-style bursts,
// DESIGN.md §12). The engine pops a packet train from the single
// chain-level mailbox and walks it through every module — ProcessBurst at
// each hop, emissions flushed synchronously to the next hop — before
// touching the queue again, so a train crosses the whole chain with one
// queue round-trip instead of one per module (the paper's Fig. 6 design,
// then PR 3's per-module batched mailboxes).
//
// Chain layout is top (application / layer A side) to bottom (transport /
// layer T side):   [0] A-module, [1..n-2] C-modules, [n-1] T-module.
// Degenerate chains (no A, or no T during unit tests) are supported via the
// up-sink and by injecting packets at either end.
//
// Threads other than the engine (the T module's receive loop, application
// senders) enter the chain through the thread-safe ModulePorts / Inject
// methods, which push origin-tagged items into the chain mailbox.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread.h"
#include "dacapo/module.h"

namespace cool::dacapo {

class ModuleChain {
 public:
  using UpSink = std::function<void(PacketPtr)>;
  using ControlSink = std::function<void(ControlMsg)>;

  ModuleChain(std::string name, std::vector<std::unique_ptr<Module>> modules,
              std::shared_ptr<PacketBudget> budget);
  ~ModuleChain();

  ModuleChain(const ModuleChain&) = delete;
  ModuleChain& operator=(const ModuleChain&) = delete;

  // Receives packets the *top* module forwards up (unset: dropped + warn).
  void SetUpSink(UpSink sink) { up_sink_ = std::move(sink); }
  // Receives control messages the top module sends up (errors, notifies).
  void SetControlSink(ControlSink sink) { control_sink_ = std::move(sink); }

  // Starts the engine thread; modules are OnStarted on it, top to bottom.
  // OnStart failures surface through the control sink.
  Status Start();

  // Closes the mailbox and joins the engine. Idempotent.
  void Stop();

  bool started() const noexcept { return started_.load(); }

  // Application-side injection: hands a packet to the top module as
  // down-travelling data. Blocks on backpressure; false once stopped.
  bool InjectDown(PacketPtr pkt);
  // Train variant: the whole batch enters under one mailbox acquisition
  // and crosses the chain as one burst. Empties `pkts` either way.
  bool InjectDownBatch(std::vector<PacketPtr>& pkts);

  // Transport-side injection: hands a packet to the bottom module as
  // up-travelling data (used by tests and callback-driven transports).
  void InjectUp(PacketPtr pkt);
  void InjectControlUp(ControlMsg msg);
  // Sends a control message down the chain starting at the top module.
  void InjectControlDown(ControlMsg msg);

  PacketBudget& budget() noexcept { return *budget_; }

  std::size_t size() const noexcept { return modules_.size(); }
  Module& module(std::size_t i) { return *modules_[i]; }
  const std::string& name() const noexcept { return name_; }

  // Monitoring (paper Fig. 5 management): one "name{counters}" line per
  // module, top to bottom. Reads only atomic module counters.
  std::vector<std::string> DescribeModules() const;

 private:
  // Thread-safe ModulePort handed to OnStart/OnStop; it may be captured
  // (the T module keeps it for its receive thread). Data and control enter
  // the chain mailbox tagged with the neighbour that handles them first.
  class Port : public ModulePort {
   public:
    Port(ModuleChain* chain, std::size_t index)
        : chain_(chain), index_(index) {}

    void ForwardUp(PacketPtr pkt) override;
    void ForwardDown(PacketPtr pkt) override;
    void ForwardUpBatch(std::vector<PacketPtr>& pkts) override;
    void ForwardDownBatch(std::vector<PacketPtr>& pkts) override;
    void ControlUp(ControlMsg msg) override;
    void ControlDown(ControlMsg msg) override;
    PacketBudget& budget() override { return chain_->budget(); }
    std::string_view channel_name() const override { return chain_->name_; }

   private:
    ModuleChain* chain_;
    std::size_t index_;
  };

  // Engine-thread-only ModulePort: buffers a module's emissions and
  // flushes them *synchronously* into the neighbouring walk (recursion),
  // so a burst runs to completion — down-emissions reach the wire, and the
  // packets they release credit the budget, while the emitter is still
  // on the stack. Constructed on the stack around each ProcessBurst /
  // HandleControl / OnTick call.
  class BurstPort : public ModulePort {
   public:
    BurstPort(ModuleChain* chain, std::size_t index)
        : chain_(chain), index_(index) {}
    ~BurstPort() override { Flush(); }

    void ForwardUp(PacketPtr pkt) override;
    void ForwardDown(PacketPtr pkt) override;
    void ForwardUpBatch(std::vector<PacketPtr>& pkts) override;
    void ForwardDownBatch(std::vector<PacketPtr>& pkts) override;
    void ControlUp(ControlMsg msg) override;
    void ControlDown(ControlMsg msg) override;
    PacketBudget& budget() override { return chain_->budget(); }
    void WaitBudget(Duration d) override;
    std::string_view channel_name() const override { return chain_->name_; }

    void Flush();

   private:
    void FlushDown();
    void FlushUp();

    ModuleChain* chain_;
    std::size_t index_;
    std::vector<PacketPtr> down_;
    std::vector<PacketPtr> up_;
  };

  void RunEngine(std::stop_token stop);

  // Dispatches one popped mailbox train: consecutive same-(direction,
  // origin) data items form one run that enters the chain as one burst.
  void DispatchPopped(std::vector<Mailbox::PopResult>& popped,
                      std::vector<PacketPtr>& run);

  // Walks a train through the chain starting at `index` (the module that
  // processes it next). Engine thread only.
  void WalkDown(std::size_t index, std::vector<PacketPtr>& pkts);
  void WalkUp(std::size_t index, std::vector<PacketPtr>& pkts);
  void WalkControl(Direction dir, std::size_t index, ControlMsg msg);
  void RouteControlUpFrom(std::size_t index, ControlMsg msg);

  // Re-feeds stalled down-packets to modules that became ready again.
  void DrainStalls();
  bool StallsEmpty() const;
  void ServiceTicks();
  Duration PopWait() const;
  void DeliverUpSink(PacketPtr pkt);

  // Services up/control traffic + stalls while a module waits for budget
  // mid-burst (BurstPort::WaitBudget).
  void PumpWhileWaiting();

  const std::string name_;
  std::shared_ptr<PacketBudget> budget_;
  std::vector<std::unique_ptr<Module>> modules_;
  std::vector<std::unique_ptr<Port>> ports_;
  Mailbox mailbox_;

  // Engine-thread state: per-module stash of down-packets the module was
  // not ready for. While any stall is non-empty the engine pops no new
  // down-data, so stalled packets stay FIFO ahead of the mailbox.
  std::vector<std::deque<PacketPtr>> stall_;
  std::vector<TimePoint> last_tick_;
  std::vector<char> walking_;  // re-entrancy guard per module
  std::vector<Mailbox::PopResult> popped_;  // PopBatch scratch
  Thread engine_;

  UpSink up_sink_;
  ControlSink control_sink_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace cool::dacapo

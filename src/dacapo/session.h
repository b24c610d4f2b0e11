// Connection management (paper Fig. 5): establishes Da CaPo connections
// between endsystems, negotiating the module graph over a signalling
// channel so both peers instantiate matching protocol stacks.
//
// Wire protocol on the signalling stream (4-octet LE length prefix frames):
//   CONFIG      {transport kind, module graph spec, initiator data port}
//   CONFIG_ACK  {responder data port}
//   CONFIG_NAK  {reason}                      -- admission/validation failed
//   RECONF      {module graph spec, initiator data port}
//   RECONF_ACK  {responder data port}
//   RECONF_NAK  {reason}
//   CLOSE       {}
//
// Data travels over a separate channel: a second stream connection or a
// pair of datagram ports, owned by the T module of the local chain. A QoS
// re-negotiation rebuilds the data plane ("changes in QoS requirements
// have to be reflected in reconfigurations of the transport connection",
// paper §4.2) while the signalling channel persists.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/blocking_queue.h"
#include "common/mutex.h"
#include "common/thread.h"
#include "dacapo/config_manager.h"
#include "dacapo/graph.h"
#include "dacapo/modules.h"
#include "dacapo/resource_manager.h"
#include "dacapo/runtime.h"
#include "sim/network.h"
#include "sim/waitset.h"

namespace cool::dacapo {

struct ChannelOptions {
  enum class Transport { kStream, kDatagram };

  Transport transport = Transport::kStream;
  ModuleGraphSpec graph;  // C modules, top to bottom
  AppAModule::DeliveryMode delivery = AppAModule::DeliveryMode::kQueue;
  // Bytes a data plane's live packets may hold (leased on demand, so an
  // idle plane holds none); what ResourceManager::Admit reserves.
  std::size_t packet_budget_bytes = 32 << 20;
  std::size_t packet_capacity = 64 * 1024;

  // Custom layer-A module (paper Fig. 7 alternative (ii): "message
  // protocols are seen as ordinary Da CaPo modules"). When set, the chain
  // is built around this module instead of an AppAModule; Send/Receive on
  // the Session are then unavailable — the A module owns the application
  // interface.
  std::function<std::unique_ptr<Module>()> a_module_factory;
};

// A live Da CaPo connection endpoint. Thread-safe for concurrent Send /
// Receive; Reconfigure must not race with Send on the same side.
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Sends one application message (<= packet_capacity minus header room).
  // Blocks under backpressure from the module graph.
  Status Send(std::span<const std::uint8_t> payload);

  // Zero-copy send seam: allocates a packet sized `n` and calls
  // `fill(span)` to write the payload directly into packet memory — no
  // staging buffer, no copy. `fill` returns Status; a failure releases the
  // packet and surfaces the status. Blocks like Send under budget/chain
  // backpressure.
  template <typename Fill>
  Status SendWith(std::size_t n, Fill&& fill) {
    if (n > options_.packet_capacity) {
      return InvalidArgumentError("message exceeds channel packet capacity");
    }
    ReaderMutexLock lock(plane_mu_);
    if (plane_.chain == nullptr || !plane_.chain->started()) {
      return FailedPreconditionError("session has no active data plane");
    }
    // Budget exhaustion is transient backpressure: wait for packets in
    // flight to be released rather than failing the application call.
    const TimePoint deadline = Now() + seconds(10);
    for (;;) {
      auto pkt = plane_.chain->budget().Allocate(n);
      if (pkt.ok()) {
        auto out = (*pkt)->WritablePayload(n);
        if (!out.ok()) return out.status();
        if (Status s = fill(*out); !s.ok()) return s;
        if (!plane_.chain->InjectDown(std::move(pkt).value())) {
          return UnavailableError("data plane closed");
        }
        return Status::Ok();
      }
      if (pkt.status().code() != ErrorCode::kResourceExhausted) {
        return pkt.status();
      }
      if (Now() >= deadline) return pkt.status();
      PreciseSleep(microseconds(200));
    }
  }

  // Zero-copy *train* send seam: allocates `count` packets, sized by
  // `size(i)` and written by `fill(i, span)`, and injects them into the
  // chain in bursts of up to PacketBatch::kCapacity — one mailbox
  // acquisition and one chain walk per burst instead of one per packet.
  // Calls strictly alternate size(0), fill(0), size(1), fill(1), ... so
  // the callbacks may share a sequential cursor. On budget backpressure the
  // packets cut so far are released into the chain first (they are the
  // traffic whose completion credits the budget), then the wait begins.
  template <typename SizeFn, typename Fill>
  Status SendTrainWith(std::size_t count, SizeFn&& size, Fill&& fill) {
    ReaderMutexLock lock(plane_mu_);
    if (plane_.chain == nullptr || !plane_.chain->started()) {
      return FailedPreconditionError("session has no active data plane");
    }
    constexpr std::size_t burst = PacketBatch::kCapacity;
    std::vector<PacketPtr> train;
    train.reserve(std::min(count, burst));
    const TimePoint deadline = Now() + seconds(10);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t n = size(i);
      if (n > options_.packet_capacity) {
        return InvalidArgumentError("message exceeds channel packet capacity");
      }
      for (;;) {
        auto pkt = plane_.chain->budget().Allocate(n);
        if (pkt.ok()) {
          auto out = (*pkt)->WritablePayload(n);
          if (!out.ok()) return out.status();
          if (Status s = fill(i, *out); !s.ok()) return s;
          train.push_back(std::move(pkt).value());
          break;
        }
        if (pkt.status().code() != ErrorCode::kResourceExhausted) {
          return pkt.status();
        }
        if (!train.empty() && !plane_.chain->InjectDownBatch(train)) {
          return UnavailableError("data plane closed");
        }
        if (Now() >= deadline) return pkt.status();
        PreciseSleep(microseconds(200));
      }
      if (train.size() >= burst && !plane_.chain->InjectDownBatch(train)) {
        return UnavailableError("data plane closed");
      }
    }
    if (!train.empty() && !plane_.chain->InjectDownBatch(train)) {
      return UnavailableError("data plane closed");
    }
    return Status::Ok();
  }

  // Receives one application message (kQueue delivery mode) as the packet
  // itself, without a copy. The packet may outlive its plane (a
  // reconfiguration can retire it meanwhile): releasing it late returns
  // its storage to the pool and credits the retired plane's budget.
  Result<PacketPtr> ReceivePacket(Duration timeout);

  // Receives one application message (kQueue delivery mode). Thin copying
  // wrapper over ReceivePacket.
  Result<std::vector<std::uint8_t>> Receive(Duration timeout);

  // Non-blocking receive: a null packet when nothing is queued
  // right now (including mid-reconfiguration), kUnavailable once either
  // end has closed the session. Pair with WatchRx for reactor-driven
  // delivery.
  Result<PacketPtr> TryReceivePacket();

  // Attaches receive readiness to `set` under `token`: signalled on every
  // upward delivery, on close, and across plane swaps (the watch outlives
  // reconfigurations; the underlying A module changes, the watch does not).
  void WatchRx(const sim::WaitSet& set, std::uint64_t token);

  // Measurement counters of the local A module.
  AppAModule::Stats stats() const;
  void ResetStats();

  // The live plane's packet budget, for monitoring (weak: a retired
  // plane's budget lives exactly as long as its last packet).
  std::weak_ptr<const PacketBudget> packet_budget() const {
    ReaderMutexLock lock(plane_mu_);
    return plane_.chain->budget().weak_from_this();
  }

  // Initiator-side re-negotiation: agree on a new module graph with the
  // peer and rebuild the data plane. Traffic must be quiesced by the
  // caller; queued but undelivered packets may be lost (the reliable
  // mechanisms of the *new* graph do not cover the old graph's flight).
  Status Reconfigure(const ModuleGraphSpec& new_graph);

  // First unrecovered protocol error reported by the module graph, if any.
  Status last_error() const;

  ModuleGraphSpec graph() const;
  // Largest payload one Send() accepts (callers above fragment to this).
  std::size_t packet_capacity() const noexcept {
    return options_.packet_capacity;
  }

  // Monitoring: per-module counter lines of the live data plane (paper
  // Fig. 5: the management component monitors the module graph).
  std::vector<std::string> DescribeGraph() const;
  ChannelOptions::Transport transport() const noexcept {
    return options_.transport;
  }

  void Close();

 private:
  friend class Connector;
  friend class Acceptor;

  struct DataPlane {
    std::unique_ptr<ModuleChain> chain;  // owns the plane's packet budget
    AppAModule* a_module = nullptr;  // owned by chain
    ModuleGraphSpec graph;
  };

  Session(sim::Network* net, std::string local_host,
          std::unique_ptr<sim::StreamSocket> signalling,
          ChannelOptions options, bool initiator,
          ResourceManager::Reservation reservation);

  // Builds a chain (A + C... + T) around a ready transport endpoint.
  static Result<DataPlane> BuildPlane(
      const ChannelOptions& options, const ModuleGraphSpec& graph,
      std::unique_ptr<sim::StreamSocket> stream_transport,
      std::unique_ptr<sim::DatagramPort> dgram_transport,
      sim::Address dgram_peer, Session* owner);

  void AdoptPlane(DataPlane plane);
  void SignallingLoop(std::stop_token stop);
  void HandleReconfRequest(std::span<const std::uint8_t> body);
  void ReportError(Status error);
  // Closed by either end: a closed receive queue is then final, not a
  // reconfiguration in flight.
  bool Ended() const { return closed_.load() || peer_closed_.load(); }

  sim::Network* net_;
  std::string local_host_;
  std::unique_ptr<sim::StreamSocket> signalling_;
  ChannelOptions options_;
  const bool initiator_;
  ResourceManager::Reservation reservation_;

  mutable SharedMutex plane_mu_{LockRank::kSession, "dacapo::Session::plane_mu_"};
  DataPlane plane_ COOL_GUARDED_BY(plane_mu_);

  // Responses to our own signalling requests (RECONF_ACK/NAK frames).
  BlockingQueue<std::vector<std::uint8_t>> responses_;

  mutable Mutex error_mu_{LockRank::kSession, "dacapo::Session::error_mu_"};
  Status error_ COOL_GUARDED_BY(error_mu_);

  Thread signalling_thread_;
  std::atomic<bool> closed_{false};       // local Close()
  std::atomic<bool> peer_closed_{false};  // the peer's CLOSE frame arrived

  // Receive-readiness watch. Lives on the Session (not the plane) so a
  // reactor registration survives reconfigurations; internally
  // synchronised.
  sim::Watchable rx_watch_;
};

// Active opener.
class Connector {
 public:
  // `local_host` names this endsystem in the simulated network.
  Connector(sim::Network* net, std::string local_host)
      : net_(net), local_host_(std::move(local_host)) {}

  // Connects to an Acceptor at `remote`, negotiates `options.graph`, and
  // returns a ready session. NAK from the peer surfaces as
  // kResourceExhausted with the peer's reason.
  Result<std::unique_ptr<Session>> Connect(const sim::Address& remote,
                                           ChannelOptions options);

 private:
  sim::Network* net_;
  std::string local_host_;
};

// Passive opener with admission control.
class Acceptor {
 public:
  // Admission hook: called with the requested graph before ACK; a non-OK
  // return is sent to the initiator as a NAK. Defaults to accept-all.
  using AdmissionHook = std::function<Status(const ModuleGraphSpec&)>;

  // `resources` may be nullptr (no resource admission).
  Acceptor(sim::Network* net, sim::Address listen_addr,
           ResourceManager* resources = nullptr);

  Status Listen();

  // Serves one connection setup: blocks for a signalling connection,
  // validates, builds the responder plane. The returned session delivers
  // into an AppAModule with `delivery` mode.
  Result<std::unique_ptr<Session>> Accept(
      AppAModule::DeliveryMode delivery = AppAModule::DeliveryMode::kQueue);

  // Non-blocking accept: a null session (no error) when no signalling
  // connection is pending, kUnavailable once closed. When a connection IS
  // pending this still runs the (short, bounded) setup handshake inline —
  // the initiator sends CONFIG immediately after connecting.
  Result<std::unique_ptr<Session>> TryAccept(
      AppAModule::DeliveryMode delivery = AppAModule::DeliveryMode::kQueue);

  // Attaches accept readiness to `set` under `token`. Returns false when
  // not listening.
  bool WatchAccept(const sim::WaitSet& set, std::uint64_t token);

  void SetAdmissionHook(AdmissionHook hook) { admission_ = std::move(hook); }

  // Custom layer-A module for accepted sessions (Fig. 7 alternative (ii));
  // overrides the delivery-mode AppAModule.
  void SetAModuleFactory(std::function<std::unique_ptr<Module>()> factory) {
    a_module_factory_ = std::move(factory);
  }

  const sim::Address& address() const noexcept { return addr_; }

  void Close();

 private:
  // Runs the CONFIG handshake and plane construction over an accepted
  // signalling socket (shared by Accept and TryAccept).
  Result<std::unique_ptr<Session>> Establish(
      std::unique_ptr<sim::StreamSocket> signalling,
      AppAModule::DeliveryMode delivery);

  sim::Network* net_;
  sim::Address addr_;
  ResourceManager* resources_;
  AdmissionHook admission_;
  std::function<std::unique_ptr<Module>()> a_module_factory_;
  std::unique_ptr<sim::Listener> listener_;
};

// Signalling frame types (exposed for protocol tests).
namespace wire {
inline constexpr std::uint8_t kConfig = 1;
inline constexpr std::uint8_t kConfigAck = 2;
inline constexpr std::uint8_t kConfigNak = 3;
inline constexpr std::uint8_t kReconf = 4;
inline constexpr std::uint8_t kReconfAck = 5;
inline constexpr std::uint8_t kReconfNak = 6;
inline constexpr std::uint8_t kClose = 7;

// Frame helpers shared by Session/Connector/Acceptor (length-prefixed).
Status SendFrame(sim::StreamSocket& socket, std::uint8_t type,
                 std::span<const std::uint8_t> body);
// Returns {type, body}.
Result<std::pair<std::uint8_t, std::vector<std::uint8_t>>> RecvFrame(
    sim::StreamSocket& socket);
// As RecvFrame, but gives up with kDeadlineExceeded after `timeout`. Used
// for the connection-setup handshake, where the peer may never answer (it
// can vanish, or its listener may close with the connect still queued).
Result<std::pair<std::uint8_t, std::vector<std::uint8_t>>> RecvFrameFor(
    sim::StreamSocket& socket, Duration timeout);
}  // namespace wire

}  // namespace cool::dacapo

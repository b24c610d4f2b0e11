// Da CaPo as the third transport under COOL's generic transport layer —
// alternative (i) of the paper's Fig. 7: "Da CaPo integrated as another
// transport protocol below the generic transport layer. Da CaPo is then
// forwarding messages formatted according to the message protocols above."
//
// This is where the unilateral message-layer -> transport-layer QoS
// negotiation of §4.3 becomes real: SetQoSParameter maps the QoS spec to
// protocol requirements, asks the configuration manager for a module graph,
// and — when the graph differs from the running one — drives a Da CaPo
// reconfiguration. If no admissible configuration exists, the error
// propagates to the client as an exception before any Request is sent.
//
// Sends go straight onto the session: every connection paces its own
// simulated link, so there is no shared link for bindings to arbitrate.
// A binding's QoS ordering against other bindings is applied where work
// does contend, at server dispatch (giop::DispatchPool).
#pragma once

#include "common/mutex.h"
#include "dacapo/config_manager.h"
#include "dacapo/resource_manager.h"
#include "dacapo/session.h"
#include "transport/com_channel.h"

namespace cool::transport {

class DacapoComChannel : public ComChannel {
 public:
  DacapoComChannel(std::unique_ptr<dacapo::Session> session,
                   dacapo::NetworkEstimate estimate,
                   qos::QoSSpec initial_qos)
      : session_(std::move(session)),
        estimate_(estimate),
        current_qos_(std::move(initial_qos)) {}
  ~DacapoComChannel() override;

  std::string_view protocol() const override { return "dacapo"; }

  // Messages larger than one Da CaPo packet are fragmented with a 1-octet
  // continuation header and reassembled on receive — the COOL-A-module
  // adaptation work of Fig. 7 alternative (i). The stream T service (and
  // any ARQ graph) is FIFO, so concatenation reassembly is sound.
  Status SendMessage(std::span<const std::uint8_t> message) override;
  // Gathered send: fragments are filled straight from the parts, crossing
  // part boundaries inside a packet — no joined staging buffer.
  Status SendMessageV(
      std::span<const std::span<const std::uint8_t>> parts) override;
  Result<ByteBuffer> ReceiveMessage(Duration timeout) override;
  Result<std::optional<ByteBuffer>> TryReceiveMessage() override;
  bool RegisterRx(const sim::WaitSet& set, std::uint64_t token) override;
  void Close() override;

  Status SetQoSParameter(const qos::QoSSpec& spec) override;
  qos::Capability TransportCapability() const override;
  qos::QoSSpec CurrentQoS() const override;

  // The module graph currently carrying this channel's traffic.
  dacapo::ModuleGraphSpec current_graph() const { return session_->graph(); }
  dacapo::Session& session() { return *session_; }

  // Capability a Da CaPo transport over `estimate` can promise.
  static qos::Capability CapabilityFor(const dacapo::NetworkEstimate& est);

 private:
  // Folds one received fragment into the reassembly state; returns the
  // completed message when the fragment was the last one.
  Result<std::optional<ByteBuffer>> ConsumeFragmentLocked(
      const dacapo::Packet& fragment) COOL_REQUIRES(rx_mu_);

  std::unique_ptr<dacapo::Session> session_;
  dacapo::NetworkEstimate estimate_;
  mutable Mutex qos_mu_{LockRank::kChannel, "transport::DacapoComChannel::qos_mu_"};
  qos::QoSSpec current_qos_ COOL_GUARDED_BY(qos_mu_);
  // tx keeps the fragments of one message contiguous on the session.
  Mutex tx_mu_ COOL_ACQUIRED_AFTER(call_mu_, async_mu_) {
      LockRank::kChannel, "transport::DacapoComChannel::tx_mu_"};
  Mutex rx_mu_ COOL_ACQUIRED_AFTER(call_mu_) {
      LockRank::kChannel, "transport::DacapoComChannel::rx_mu_"};
  // Cross-call reassembly state: a non-blocking receive may return with a
  // message half-assembled; the next call (blocking or not) continues it.
  ByteBuffer rx_partial_ COOL_GUARDED_BY(rx_mu_);
  bool rx_partial_active_ COOL_GUARDED_BY(rx_mu_) = false;
};

class DacapoComManager : public ComManager {
 public:
  // `resources` (optional) enables server-side admission control.
  DacapoComManager(sim::Network* net, sim::Address listen_addr,
                   dacapo::NetworkEstimate estimate,
                   dacapo::ResourceManager* resources = nullptr)
      : net_(net),
        estimate_(estimate),
        acceptor_(net, std::move(listen_addr), resources) {}

  std::string_view protocol() const override { return "dacapo"; }

  Status Listen() { return acceptor_.Listen(); }

  // Opens a channel whose module graph is configured from `qos` (empty
  // spec -> empty graph over the reliable stream T service).
  Result<std::unique_ptr<ComChannel>> OpenChannel(
      const sim::Address& remote, const qos::QoSSpec& qos) override;
  Result<std::unique_ptr<ComChannel>> AcceptChannel() override;
  Result<std::unique_ptr<ComChannel>> TryAcceptChannel() override;
  bool RegisterAccept(const sim::WaitSet& set, std::uint64_t token) override;
  void Close() override { acceptor_.Close(); }

  const sim::Address& address() const noexcept { return acceptor_.address(); }

 private:
  sim::Network* net_;
  dacapo::NetworkEstimate estimate_;
  dacapo::Acceptor acceptor_;
};

}  // namespace cool::transport

#include "transport/dacapo_channel.h"

#include <algorithm>
#include <limits>

#include "common/deadlock.h"
#include "common/logging.h"
#include "qos/mapping.h"

namespace cool::transport {

DacapoComChannel::~DacapoComChannel() {
  Close();
  DrainAsync();
}

namespace {
// Fragment header octet: 1 = more fragments of this message follow.
constexpr std::uint8_t kMoreFragments = 1;
constexpr std::uint8_t kLastFragment = 0;
}  // namespace

Status DacapoComChannel::SendMessage(std::span<const std::uint8_t> message) {
  // Direct single-span paths rather than delegating to SendMessageV: this
  // is the hottest per-message path (every non-gathered send), and the
  // part-cursor bookkeeping costs a measurable fraction of a small-message
  // send on a fast link.
  const std::size_t max_payload = session_->packet_capacity() - 1;
  const std::size_t fragments =
      message.empty() ? 1 : (message.size() + max_payload - 1) / max_payload;
  MutexLock lock(tx_mu_);
  if (fragments == 1) {
    return session_->SendWith(
        message.size() + 1, [message](std::span<std::uint8_t> out) {
          out[0] = kLastFragment;
          std::copy(message.begin(), message.end(), out.begin() + 1);
          return Status::Ok();
        });
  }
  // Multi-fragment: the whole message enters the chain as packet trains —
  // one mailbox round-trip per burst instead of one per fragment.
  return session_->SendTrainWith(
      fragments,
      [&](std::size_t i) {
        return std::min(max_payload, message.size() - i * max_payload) + 1;
      },
      [&](std::size_t i, std::span<std::uint8_t> out) {
        const auto piece = message.subspan(i * max_payload, out.size() - 1);
        out[0] = i + 1 < fragments ? kMoreFragments : kLastFragment;
        std::copy(piece.begin(), piece.end(), out.begin() + 1);
        return Status::Ok();
      });
}

Status DacapoComChannel::SendMessageV(
    std::span<const std::span<const std::uint8_t>> parts) {
  const std::size_t max_payload = session_->packet_capacity() - 1;
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();

  const std::size_t fragments =
      total == 0 ? 1 : (total + max_payload - 1) / max_payload;
  MutexLock lock(tx_mu_);
  // Cursor over the concatenation of `parts`: fragments are filled straight
  // into the packet, crossing part boundaries as needed — no joined
  // staging vector, no per-fragment staging vector. SendTrainWith calls the
  // callbacks strictly in order, so the cursor advances monotonically.
  std::size_t part_idx = 0;
  std::size_t part_off = 0;
  std::size_t sent = 0;
  return session_->SendTrainWith(
      fragments,
      [&](std::size_t) { return std::min(max_payload, total - sent) + 1; },
      [&](std::size_t i, std::span<std::uint8_t> out) {
        const std::size_t n = out.size() - 1;
        out[0] = i + 1 < fragments ? kMoreFragments : kLastFragment;
        std::size_t filled = 0;
        while (filled < n) {
          while (part_off == parts[part_idx].size()) {
            ++part_idx;
            part_off = 0;
          }
          const auto piece = parts[part_idx].subspan(
              part_off,
              std::min(n - filled, parts[part_idx].size() - part_off));
          std::copy(piece.begin(), piece.end(),
                    out.begin() + 1 + static_cast<std::ptrdiff_t>(filled));
          part_off += piece.size();
          filled += piece.size();
        }
        sent += n;
        return Status::Ok();
      });
}

Result<ByteBuffer> DacapoComChannel::ReceiveMessage(Duration timeout) {
  const TimePoint deadline = DeadlineFor(timeout);
  MutexLock lock(rx_mu_);
  for (;;) {
    // The caller's deadline only gates the wait for a message to *start*.
    // Once the first fragment is in, continuation fragments get their own
    // floor: a short-quantum poller must not abandon a half-assembled
    // message — the remaining fragments would desynchronize the stream.
    Duration remaining = deadline - Now();
    if (rx_partial_active_) {
      remaining = std::max<Duration>(remaining, seconds(1));
    }
    COOL_ASSIGN_OR_RETURN(dacapo::PacketPtr fragment,
                          session_->ReceivePacket(remaining));
    COOL_ASSIGN_OR_RETURN(std::optional<ByteBuffer> done,
                          ConsumeFragmentLocked(*fragment));
    if (done.has_value()) return std::move(*done);
  }
}

Result<std::optional<ByteBuffer>> DacapoComChannel::TryReceiveMessage() {
  MutexLock lock(rx_mu_);
  for (;;) {
    Result<dacapo::PacketPtr> fragment = session_->TryReceivePacket();
    if (!fragment.ok()) {
      // Closed-and-drained: a half-assembled message can never complete,
      // so surface the close even with a partial buffered.
      return fragment.status();
    }
    if (!*fragment) return std::optional<ByteBuffer>{};  // nothing queued
    COOL_ASSIGN_OR_RETURN(std::optional<ByteBuffer> done,
                          ConsumeFragmentLocked(**fragment));
    if (done.has_value()) return done;
  }
}

Result<std::optional<ByteBuffer>> DacapoComChannel::ConsumeFragmentLocked(
    const dacapo::Packet& fragment) {
  const auto data = fragment.Data();
  if (data.empty()) {
    return Status(ProtocolError("empty Da CaPo fragment"));
  }
  const std::uint8_t flags = data.front();
  if (flags > kMoreFragments) {
    return Status(ProtocolError("bad fragment header"));
  }
  rx_partial_.Append(data.subspan(1));
  if (flags == kMoreFragments) {
    rx_partial_active_ = true;
    return std::optional<ByteBuffer>{};
  }
  rx_partial_active_ = false;
  ByteBuffer out = std::move(rx_partial_);
  rx_partial_ = ByteBuffer();
  return std::optional<ByteBuffer>{std::move(out)};
}

bool DacapoComChannel::RegisterRx(const sim::WaitSet& set,
                                  std::uint64_t token) {
  session_->WatchRx(set, token);
  return true;
}

void DacapoComChannel::Close() { session_->Close(); }

qos::Capability DacapoComChannel::CapabilityFor(
    const dacapo::NetworkEstimate& est) {
  qos::Capability cap;
  // An unbounded link (bandwidth 0) caps throughput nowhere.
  cap.SetBest(qos::ParamType::kThroughputKbps,
              est.bandwidth_bps == 0
                  ? std::numeric_limits<corba::Long>::max()
                  : static_cast<corba::Long>(est.bandwidth_bps / 1000));
  cap.SetBest(qos::ParamType::kLatencyMicros,
              static_cast<corba::Long>(est.rtt_us / 2));
  cap.SetBest(qos::ParamType::kJitterMicros,
              static_cast<corba::Long>(est.rtt_us / 4 + 1));
  cap.SetBest(qos::ParamType::kReliability, 2);  // ARQ mechanisms available
  cap.SetBest(qos::ParamType::kOrdering, 1);
  cap.SetBest(qos::ParamType::kEncryption, 1);
  cap.SetBest(qos::ParamType::kLossPermille, 0);  // with retransmission
  cap.SetBest(qos::ParamType::kPriority, 255);
  return cap;
}

qos::Capability DacapoComChannel::TransportCapability() const {
  return CapabilityFor(estimate_);
}

qos::QoSSpec DacapoComChannel::CurrentQoS() const {
  MutexLock lock(qos_mu_);
  return current_qos_;
}

Status DacapoComChannel::SetQoSParameter(const qos::QoSSpec& spec) {
  // Unilateral negotiation (paper §4.3): the transport either maps the QoS
  // to a protocol configuration + resources, or refuses.
  const qos::ProtocolRequirements req = qos::MapToProtocolRequirements(spec);
  dacapo::ConfigurationManager config;
  COOL_ASSIGN_OR_RETURN(dacapo::ConfiguredGraph graph,
                        config.Configure(req, estimate_));

  bool same_graph = false;
  {
    MutexLock lock(qos_mu_);
    if (graph.spec == session_->graph()) {
      // Same module graph satisfies the new spec: nothing to rebuild.
      current_qos_ = spec;
      same_graph = true;
    }
  }
  if (!same_graph) {
    COOL_LOG(kInfo, "transport")
        << "dacapo reconfiguration for QoS " << spec.ToString() << " -> "
        << graph.spec.ToString();
    COOL_RETURN_IF_ERROR(session_->Reconfigure(graph.spec));
    MutexLock lock(qos_mu_);
    current_qos_ = spec;
  }
  return Status::Ok();
}

Result<std::unique_ptr<ComChannel>> DacapoComManager::OpenChannel(
    const sim::Address& remote, const qos::QoSSpec& qos) {
  dacapo::ChannelOptions options;
  options.transport = dacapo::ChannelOptions::Transport::kStream;
  if (!qos.empty()) {
    const qos::ProtocolRequirements req = qos::MapToProtocolRequirements(qos);
    dacapo::ConfigurationManager config;
    dacapo::NetworkEstimate est = estimate_;
    est.transport_reliable = true;  // stream T service underneath
    COOL_ASSIGN_OR_RETURN(dacapo::ConfiguredGraph graph,
                          config.Configure(req, est));
    options.graph = graph.spec;
  }
  dacapo::Connector connector(net_, acceptor_.address().host);
  COOL_ASSIGN_OR_RETURN(std::unique_ptr<dacapo::Session> session,
                        connector.Connect(remote, options));
  return std::unique_ptr<ComChannel>(std::make_unique<DacapoComChannel>(
      std::move(session), estimate_, qos));
}

Result<std::unique_ptr<ComChannel>> DacapoComManager::AcceptChannel() {
  COOL_ASSIGN_OR_RETURN(std::unique_ptr<dacapo::Session> session,
                        acceptor_.Accept(dacapo::AppAModule::DeliveryMode::kQueue));
  return std::unique_ptr<ComChannel>(std::make_unique<DacapoComChannel>(
      std::move(session), estimate_, qos::QoSSpec{}));
}

Result<std::unique_ptr<ComChannel>> DacapoComManager::TryAcceptChannel() {
  // Bounded by design: TryAccept only runs the setup handshake when a
  // connection is already pending, the initiator sends CONFIG immediately
  // after connecting, and every recv inside carries kHandshakeTimeout. A
  // reactor accept callback may therefore ride it out (DESIGN.md §11).
  deadlock::ScopedBlockingAllowed handshake_is_bounded;
  COOL_ASSIGN_OR_RETURN(
      std::unique_ptr<dacapo::Session> session,
      acceptor_.TryAccept(dacapo::AppAModule::DeliveryMode::kQueue));
  if (session == nullptr) return std::unique_ptr<ComChannel>();
  return std::unique_ptr<ComChannel>(std::make_unique<DacapoComChannel>(
      std::move(session), estimate_, qos::QoSSpec{}));
}

bool DacapoComManager::RegisterAccept(const sim::WaitSet& set,
                                      std::uint64_t token) {
  return acceptor_.WatchAccept(set, token);
}

}  // namespace cool::transport

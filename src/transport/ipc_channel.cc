#include "transport/ipc_channel.h"

#include <array>
#include <atomic>

namespace cool::transport {

namespace {

// Control datagram format: magic 'I''P''C' + kind octet + u16 LE channel
// port (zero in a CLOSE).
constexpr std::uint8_t kHello = 1;
constexpr std::uint8_t kHelloAck = 2;
constexpr std::uint8_t kClose = 3;
constexpr std::size_t kControlSize = 6;

std::uint16_t AllocIpcPort() {
  static std::atomic<std::uint16_t> next{30000};
  return next.fetch_add(1);
}

std::array<std::uint8_t, kControlSize> EncodeControl(std::uint8_t kind,
                                                     std::uint16_t port) {
  return {'I', 'P', 'C', kind, static_cast<std::uint8_t>(port),
          static_cast<std::uint8_t>(port >> 8)};
}

Result<std::pair<std::uint8_t, std::uint16_t>> DecodeControl(
    std::span<const std::uint8_t> payload) {
  if (payload.size() != kControlSize || payload[0] != 'I' ||
      payload[1] != 'P' || payload[2] != 'C') {
    return Status(ProtocolError("malformed IPC control datagram"));
  }
  const std::uint16_t port = static_cast<std::uint16_t>(payload[4]) |
                             static_cast<std::uint16_t>(payload[5]) << 8;
  return std::make_pair(payload[3], port);
}

bool IsClose(std::span<const std::uint8_t> payload) {
  auto decoded = DecodeControl(payload);
  return decoded.ok() && decoded->first == kClose;
}

Status PeerClosed() { return UnavailableError("IPC peer closed the channel"); }

}  // namespace

IpcComChannel::~IpcComChannel() {
  Close();
  DrainAsync();
}

Status IpcComChannel::SendMessage(std::span<const std::uint8_t> message) {
  return port_->SendTo(peer_, message);
}

Status IpcComChannel::SendMessageV(
    std::span<const std::span<const std::uint8_t>> parts) {
  return port_->SendToV(peer_, parts);
}

Result<ByteBuffer> IpcComChannel::ReceiveMessage(Duration timeout) {
  for (;;) {
    if (peer_closed_.load()) return PeerClosed();
    auto dgram = port_->RecvFor(timeout);
    if (!dgram.has_value()) {
      // A closed-and-drained port reports the close as terminal, not as
      // a timeout, so a poller stops instead of waiting out its quantum.
      if (port_->depleted()) {
        return Status(UnavailableError("IPC channel closed"));
      }
      return Status(DeadlineExceededError("IPC receive timed out"));
    }
    if (dgram->from != peer_) continue;  // stray datagram: not our peer
    if (IsClose(dgram->payload)) {
      peer_closed_.store(true);
      continue;
    }
    return ByteBuffer(std::move(dgram->payload));
  }
}

Result<std::optional<ByteBuffer>> IpcComChannel::TryReceiveMessage() {
  for (;;) {
    if (peer_closed_.load()) return PeerClosed();
    std::optional<sim::Datagram> dgram = port_->TryRecv();
    if (!dgram.has_value()) {
      if (port_->depleted()) {
        return Status(UnavailableError("IPC channel closed"));
      }
      return std::optional<ByteBuffer>{};
    }
    if (dgram->from != peer_) continue;  // stray datagram: not our peer
    if (IsClose(dgram->payload)) {
      peer_closed_.store(true);
      continue;
    }
    return std::optional<ByteBuffer>{ByteBuffer(std::move(dgram->payload))};
  }
}

bool IpcComChannel::RegisterRx(const sim::WaitSet& set, std::uint64_t token) {
  port_->WatchRecv(set, token);
  return true;
}

void IpcComChannel::Close() {
  if (closed_.exchange(true)) return;
  // Chorus IPC has no connection to tear down, so the close travels as a
  // CLOSE datagram: the peer's receives turn terminal instead of timing
  // out. A datagram send never waits on the peer.
  (void)port_->SendTo(peer_, EncodeControl(kClose, 0));
  port_->Close();
}

Status IpcComManager::Listen() {
  COOL_ASSIGN_OR_RETURN(hello_port_, net_->OpenPort(addr_));
  return Status::Ok();
}

Result<std::unique_ptr<ComChannel>> IpcComManager::OpenChannel(
    const sim::Address& remote, const qos::QoSSpec& qos) {
  if (!qos.empty()) {
    return Status(
        UnsupportedError("ipc transport cannot satisfy a QoS specification"));
  }
  const std::uint16_t local_port = AllocIpcPort();
  COOL_ASSIGN_OR_RETURN(std::unique_ptr<sim::DatagramPort> port,
                        net_->OpenPort({addr_.host, local_port}));

  // Chorus IPC is reliable; our HELLO still retries a few times so a
  // mis-configured lossy link fails loudly instead of hanging.
  for (int attempt = 0; attempt < 3; ++attempt) {
    COOL_RETURN_IF_ERROR(
        port->SendTo(remote, EncodeControl(kHello, local_port)));
    auto reply = port->RecvFor(milliseconds(250));
    if (!reply.has_value()) continue;
    COOL_ASSIGN_OR_RETURN(auto decoded, DecodeControl(reply->payload));
    const auto& [kind, peer_port] = decoded;
    if (kind != kHelloAck) continue;
    return std::unique_ptr<ComChannel>(std::make_unique<IpcComChannel>(
        std::move(port), sim::Address{remote.host, peer_port}));
  }
  return Status(UnavailableError("IPC handshake failed: " +
                                 remote.ToString() + " not answering"));
}

Result<std::unique_ptr<ComChannel>> IpcComManager::AcceptChannel() {
  if (hello_port_ == nullptr) {
    return Status(FailedPreconditionError("manager is not listening"));
  }
  for (;;) {
    auto dgram = hello_port_->Recv();
    if (!dgram.has_value()) {
      return Status(UnavailableError("IPC manager closed"));
    }
    auto decoded = DecodeControl(dgram->payload);
    if (!decoded.ok() || decoded->first != kHello) continue;

    const std::uint16_t channel_port = AllocIpcPort();
    COOL_ASSIGN_OR_RETURN(std::unique_ptr<sim::DatagramPort> port,
                          net_->OpenPort({addr_.host, channel_port}));
    const sim::Address peer{dgram->from.host, decoded->second};
    COOL_RETURN_IF_ERROR(
        port->SendTo(peer, EncodeControl(kHelloAck, channel_port)));
    return std::unique_ptr<ComChannel>(
        std::make_unique<IpcComChannel>(std::move(port), peer));
  }
}

Result<std::unique_ptr<ComChannel>> IpcComManager::TryAcceptChannel() {
  if (hello_port_ == nullptr) {
    return Status(FailedPreconditionError("manager is not listening"));
  }
  for (;;) {
    std::optional<sim::Datagram> dgram = hello_port_->TryRecv();
    if (!dgram.has_value()) {
      if (hello_port_->depleted()) {
        return Status(UnavailableError("IPC manager closed"));
      }
      return std::unique_ptr<ComChannel>();
    }
    auto decoded = DecodeControl(dgram->payload);
    if (!decoded.ok() || decoded->first != kHello) continue;

    const std::uint16_t channel_port = AllocIpcPort();
    COOL_ASSIGN_OR_RETURN(std::unique_ptr<sim::DatagramPort> port,
                          net_->OpenPort({addr_.host, channel_port}));
    const sim::Address peer{dgram->from.host, decoded->second};
    COOL_RETURN_IF_ERROR(
        port->SendTo(peer, EncodeControl(kHelloAck, channel_port)));
    return std::unique_ptr<ComChannel>(
        std::make_unique<IpcComChannel>(std::move(port), peer));
  }
}

bool IpcComManager::RegisterAccept(const sim::WaitSet& set,
                                   std::uint64_t token) {
  if (hello_port_ == nullptr) return false;
  hello_port_->WatchRecv(set, token);
  return true;
}

void IpcComManager::Close() {
  if (hello_port_ != nullptr) hello_port_->Close();
}

}  // namespace cool::transport

// Chorus-IPC-like transport: message-oriented, connectionless at the wire
// but presented as channels after a two-datagram HELLO handshake. Mirrors
// the second transport COOL supports on ChorusOS ("The supported transport
// layer protocols are TCP/IP and Chorus IPC"). Chorus IPC is reliable
// kernel IPC; accordingly this transport must only be deployed on links
// configured without loss (asserted at channel setup). Close() sends the
// peer a CLOSE datagram, after which the peer's receives report
// kUnavailable, as a closed TCP stream does.
#pragma once

#include <atomic>

#include "sim/network.h"
#include "transport/com_channel.h"

namespace cool::transport {

class IpcComChannel : public ComChannel {
 public:
  IpcComChannel(std::unique_ptr<sim::DatagramPort> port, sim::Address peer)
      : port_(std::move(port)), peer_(std::move(peer)) {}
  ~IpcComChannel() override;

  std::string_view protocol() const override { return "ipc"; }

  Status SendMessage(std::span<const std::uint8_t> message) override;
  // Gathered send: one datagram from many parts, no concatenation here.
  Status SendMessageV(
      std::span<const std::span<const std::uint8_t>> parts) override;
  Result<ByteBuffer> ReceiveMessage(Duration timeout) override;
  Result<std::optional<ByteBuffer>> TryReceiveMessage() override;
  bool RegisterRx(const sim::WaitSet& set, std::uint64_t token) override;
  void Close() override;

  const sim::Address& peer() const noexcept { return peer_; }

 private:
  std::unique_ptr<sim::DatagramPort> port_;
  sim::Address peer_;
  std::atomic<bool> closed_{false};       // Close() ran: CLOSE sent once
  std::atomic<bool> peer_closed_{false};  // the peer's CLOSE arrived
};

class IpcComManager : public ComManager {
 public:
  IpcComManager(sim::Network* net, sim::Address listen_addr)
      : net_(net), addr_(std::move(listen_addr)) {}

  std::string_view protocol() const override { return "ipc"; }

  Status Listen();

  Result<std::unique_ptr<ComChannel>> OpenChannel(
      const sim::Address& remote, const qos::QoSSpec& qos) override;
  Result<std::unique_ptr<ComChannel>> AcceptChannel() override;
  Result<std::unique_ptr<ComChannel>> TryAcceptChannel() override;
  bool RegisterAccept(const sim::WaitSet& set, std::uint64_t token) override;
  void Close() override;

  const sim::Address& address() const noexcept { return addr_; }

 private:
  sim::Network* net_;
  sim::Address addr_;
  std::unique_ptr<sim::DatagramPort> hello_port_;
};

}  // namespace cool::transport

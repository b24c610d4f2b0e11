#include "transport/tcp_channel.h"

#include <array>

namespace cool::transport {

namespace {

// A peer that keeps its receive window full this long is treated as gone:
// the send fails with kDeadlineExceeded instead of pinning the sending
// thread (for a reply, a dispatch worker) until the peer reads or the
// channel closes. Nothing is written, so the stream stays framed.
constexpr Duration kWindowStallLimit = seconds(10);

}  // namespace

void TcpBuffer::Append(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;
  if (data_.empty()) {
    // Lazy lease: storage comes from the shared pool only while bytes are
    // actually buffered (ReleaseIfDrained hands it back between bursts).
    data_ = BufferPool::Default().Lease(bytes.size());
  }
  data_.Append(bytes);
}

void TcpBuffer::Compact() {
  if (consumed_ == 0) return;
  data_.EraseFront(consumed_);
  consumed_ = 0;
}

void TcpBuffer::ReleaseIfDrained() {
  if (data_.empty() || consumed_ != data_.size()) return;
  data_ = ByteBuffer();  // pooled storage returns to the free list
  consumed_ = 0;
}

Result<std::optional<ByteBuffer>> TcpBuffer::NextMessage() {
  if (buffered_bytes() < 4) return std::optional<ByteBuffer>{};
  const std::uint8_t* p = data_.data() + consumed_;
  const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                            static_cast<std::uint32_t>(p[1]) << 8 |
                            static_cast<std::uint32_t>(p[2]) << 16 |
                            static_cast<std::uint32_t>(p[3]) << 24;
  if (len > kMaxMessage) {
    return Status(ProtocolError("message length exceeds limit"));
  }
  if (buffered_bytes() < 4 + static_cast<std::size_t>(len)) {
    return std::optional<ByteBuffer>{};
  }
  // Pooled lease: the one unavoidable stream-to-message copy lands in
  // recycled storage, and the buffer rides up to the engine (which adopts
  // it into a ParsedMessage) without further copies.
  ByteBuffer msg = BufferPool::Default().Lease(len);
  msg.Append({p + 4, len});
  consumed_ += 4 + len;
  // Keep the buffer from growing without bound on long-lived channels.
  if (consumed_ > 64 * 1024) Compact();
  return std::optional<ByteBuffer>{std::move(msg)};
}

TcpComChannel::~TcpComChannel() {
  Close();
  DrainAsync();
}

Status TcpComChannel::SendMessage(std::span<const std::uint8_t> message) {
  const std::span<const std::uint8_t> one[] = {message};
  return SendMessageV(one);
}

Status TcpComChannel::SendMessageV(
    std::span<const std::span<const std::uint8_t>> parts) {
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  const std::uint32_t len = static_cast<std::uint32_t>(total);
  const std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
      static_cast<std::uint8_t>(len >> 16),
      static_cast<std::uint8_t>(len >> 24)};

  // {prefix, parts...} leave as one gathered stream write. The engines
  // never send more than a preamble + an args tail, so the iovec lives on
  // the stack in the common case.
  std::array<std::span<const std::uint8_t>, 4> small;
  std::vector<std::span<const std::uint8_t>> large;
  std::span<const std::span<const std::uint8_t>> iov;
  if (parts.size() + 1 <= small.size()) {
    small[0] = std::span<const std::uint8_t>(prefix, 4);
    for (std::size_t i = 0; i < parts.size(); ++i) small[i + 1] = parts[i];
    iov = std::span(small.data(), parts.size() + 1);
  } else {
    large.reserve(parts.size() + 1);
    large.emplace_back(prefix, 4);
    large.insert(large.end(), parts.begin(), parts.end());
    iov = large;
  }
  MutexLock lock(tx_mu_);
  return socket_->SendV(iov, kWindowStallLimit);
}

Result<ByteBuffer> TcpComChannel::ReceiveMessage(Duration timeout) {
  const TimePoint deadline = DeadlineFor(timeout);
  MutexLock lock(rx_mu_);
  for (;;) {
    // Deliberately not COOL_ASSIGN_OR_RETURN: moving the optional out of
    // the Result trips GCC 12's -Wmaybe-uninitialized on the moved-from
    // buffer's destructor; reading through the Result does not.
    Result<std::optional<ByteBuffer>> next = rx_buffer_.NextMessage();
    if (!next.ok()) return next.status();
    if (next->has_value()) {
      return std::move(**next);
    }
    const Duration remaining = deadline - Now();
    if (remaining <= Duration::zero()) {
      return Status(DeadlineExceededError("receive timed out"));
    }
    rx_buffer_.ReleaseIfDrained();  // idle across the blocking wait below
    std::uint8_t chunk[16 * 1024];
    COOL_ASSIGN_OR_RETURN(std::size_t n, socket_->RecvFor(chunk, remaining));
    rx_buffer_.Append({chunk, n});
  }
}

Result<std::optional<ByteBuffer>> TcpComChannel::TryReceiveMessage() {
  MutexLock lock(rx_mu_);
  for (;;) {
    Result<std::optional<ByteBuffer>> next = rx_buffer_.NextMessage();
    if (!next.ok()) return next.status();
    if (next->has_value()) return next;
    std::uint8_t chunk[16 * 1024];
    Result<std::size_t> n = socket_->TryRecv(chunk);
    if (!n.ok()) {
      // Closed-and-drained: a partially reassembled message can never
      // complete, so surface the close even with residual bytes buffered.
      return n.status();
    }
    if (*n == 0) {
      // Connection went idle: hand the reassembly storage back to the pool
      // until the next burst (no-op while a partial message is pending).
      rx_buffer_.ReleaseIfDrained();
      return std::optional<ByteBuffer>{};  // nothing deliverable
    }
    rx_buffer_.Append({chunk, *n});
  }
}

bool TcpComChannel::RegisterRx(const sim::WaitSet& set, std::uint64_t token) {
  socket_->WatchRecv(set, token);
  return true;
}

void TcpComChannel::Close() { socket_->Close(); }

Status TcpComManager::Listen() {
  COOL_ASSIGN_OR_RETURN(listener_, net_->Listen(addr_));
  return Status::Ok();
}

Result<std::unique_ptr<ComChannel>> TcpComManager::OpenChannel(
    const sim::Address& remote, const qos::QoSSpec& qos) {
  if (!qos.empty()) {
    // Paper §4.3: TCP does not implement setQoSParameter; a QoS-bearing
    // binding cannot be opened over it.
    return Status(
        UnsupportedError("tcp transport cannot satisfy a QoS specification"));
  }
  COOL_ASSIGN_OR_RETURN(std::unique_ptr<sim::StreamSocket> socket,
                        net_->Connect(addr_.host, remote));
  return std::unique_ptr<ComChannel>(
      std::make_unique<TcpComChannel>(std::move(socket)));
}

Result<std::unique_ptr<ComChannel>> TcpComManager::AcceptChannel() {
  if (listener_ == nullptr) {
    return Status(FailedPreconditionError("manager is not listening"));
  }
  COOL_ASSIGN_OR_RETURN(std::unique_ptr<sim::StreamSocket> socket,
                        listener_->Accept());
  return std::unique_ptr<ComChannel>(
      std::make_unique<TcpComChannel>(std::move(socket)));
}

Result<std::unique_ptr<ComChannel>> TcpComManager::TryAcceptChannel() {
  if (listener_ == nullptr) {
    return Status(FailedPreconditionError("manager is not listening"));
  }
  COOL_ASSIGN_OR_RETURN(std::unique_ptr<sim::StreamSocket> socket,
                        listener_->TryAccept());
  if (socket == nullptr) return std::unique_ptr<ComChannel>();
  return std::unique_ptr<ComChannel>(
      std::make_unique<TcpComChannel>(std::move(socket)));
}

bool TcpComManager::RegisterAccept(const sim::WaitSet& set,
                                   std::uint64_t token) {
  if (listener_ == nullptr) return false;
  listener_->WatchAccept(set, token);
  return true;
}

void TcpComManager::Close() {
  if (listener_ != nullptr) listener_->Close();
}

}  // namespace cool::transport

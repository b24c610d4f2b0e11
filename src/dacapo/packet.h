// Da CaPo packets and their memory budget (paper Fig. 6: "The packets are
// situated in shared memory accessible by Da CaPo modules"; modules
// exchange *pointers* to packets over message queues).
//
// A Packet is a fixed-capacity buffer with headroom: C-modules prepend
// their protocol headers in place on the way down (PushHeader) and strip
// them on the way up (PopHeader), so payload bytes are written once by the
// A-module and never copied again inside the chain. Its storage is leased
// from the shared BufferPool for the size it carries; a plane's
// PacketBudget caps what its packets hold (paper Fig. 5's admitted memory).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "common/buffer_pool.h"
#include "common/clock.h"
#include "common/status.h"

namespace cool::dacapo {

class PacketBudget;

class Packet {
 public:
  // Headroom for stacked module headers; 16 modules x 8 bytes fits easily.
  static constexpr std::size_t kHeadroom = 128;
  // Tail slack every budgeted allocation adds behind the payload, so
  // checksum trailers fit behind a full-size message.
  static constexpr std::size_t kTailroom = 64;

  // Unbudgeted packet with room for `payload_capacity` octets (payload plus
  // trailers) behind the headroom. Data-plane packets come from a budget.
  explicit Packet(std::size_t payload_capacity)
      : buf_(BufferPool::Default().LeaseSized(kHeadroom + payload_capacity)),
        data_off_(kHeadroom),
        data_len_(0) {}
  // Returns the storage to the pool and credits the budget, if any.
  ~Packet();

  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;

  // --- payload ------------------------------------------------------------
  // Replaces the packet content (resets any pushed headers).
  Status SetPayload(std::span<const std::uint8_t> payload) {
    if (payload.size() > buf_.size() - kHeadroom) {
      return InvalidArgumentError("payload exceeds packet capacity");
    }
    data_off_ = kHeadroom;
    data_len_ = payload.size();
    std::copy(payload.begin(), payload.end(), buf_.data() + data_off_);
    return Status::Ok();
  }

  // Zero-copy fill seam: resets the packet (like SetPayload) to an
  // *unspecified* payload of `n` octets and exposes it for writing, so
  // transports can receive and encoders can marshal directly into packet
  // memory instead of staging through an intermediate buffer.
  Result<std::span<std::uint8_t>> WritablePayload(std::size_t n) {
    if (n > buf_.size() - kHeadroom) {
      return Status(InvalidArgumentError("payload exceeds packet capacity"));
    }
    data_off_ = kHeadroom;
    data_len_ = n;
    return std::span<std::uint8_t>{buf_.data() + data_off_, data_len_};
  }

  std::span<std::uint8_t> Data() noexcept {
    return {buf_.data() + data_off_, data_len_};
  }
  std::span<const std::uint8_t> Data() const noexcept {
    return {buf_.data() + data_off_, data_len_};
  }
  std::size_t size() const noexcept { return data_len_; }

  // --- header stack ---------------------------------------------------------
  Status PushHeader(std::span<const std::uint8_t> header) {
    if (header.size() > data_off_) {
      return ResourceExhaustedError("packet headroom exhausted");
    }
    data_off_ -= header.size();
    data_len_ += header.size();
    std::copy(header.begin(), header.end(), buf_.data() + data_off_);
    return Status::Ok();
  }

  // Exposes the first n octets and removes them from the packet view.
  Result<std::span<const std::uint8_t>> PopHeader(std::size_t n) {
    if (n > data_len_) return Status(ProtocolError("header pop underrun"));
    std::span<const std::uint8_t> header{buf_.data() + data_off_, n};
    data_off_ += n;
    data_len_ -= n;
    return header;
  }

  // Extends the packet at the tail (trailers, e.g. checksums; also the
  // in-place assembly seam: append message pieces one after another).
  // Subtraction form: data_off_ + data_len_ <= buf_.size() by invariant,
  // but a huge trailer must not wrap the sum past the bounds test.
  Status PushTrailer(std::span<const std::uint8_t> trailer) {
    if (trailer.size() > buf_.size() - data_off_ - data_len_) {
      return ResourceExhaustedError("packet tailroom exhausted");
    }
    std::copy(trailer.begin(), trailer.end(),
              buf_.data() + data_off_ + data_len_);
    data_len_ += trailer.size();
    return Status::Ok();
  }

  Result<std::span<const std::uint8_t>> PopTrailer(std::size_t n) {
    if (n > data_len_) return Status(ProtocolError("trailer pop underrun"));
    data_len_ -= n;
    return std::span<const std::uint8_t>{
        buf_.data() + data_off_ + data_len_, n};
  }

  // --- metadata --------------------------------------------------------------
  TimePoint created_at() const noexcept { return created_at_; }
  void set_created_at(TimePoint t) noexcept { created_at_ = t; }

  std::size_t capacity() const noexcept { return buf_.size() - kHeadroom; }

 private:
  friend class PacketBudget;

  ByteBuffer buf_;  // fixed size: kHeadroom + capacity()
  std::size_t data_off_;
  std::size_t data_len_;
  TimePoint created_at_{};
  std::shared_ptr<PacketBudget> budget_;  // charged buf_.size(); may be null
};

using PacketPtr = std::unique_ptr<Packet>;

// A data plane's packet-memory budget: each packet it allocates is charged
// the bytes it leases (kHeadroom + payload + kTailroom) until released.
// Allocate fails with kResourceExhausted while the limit would be passed:
// the plane's backpressure (senders wait it out, T modules drop and count).
// Packets share the budget (a counter, no memory), so one released after
// its plane is gone is still safe. Own it with std::make_shared.
class PacketBudget : public std::enable_shared_from_this<PacketBudget> {
 public:
  explicit PacketBudget(std::size_t limit_bytes) : limit_(limit_bytes) {}

  // An empty packet with room for `payload` octets plus kTailroom.
  Result<PacketPtr> Allocate(std::size_t payload);

  // Allocates a packet carrying `payload`.
  Result<PacketPtr> Make(std::span<const std::uint8_t> payload);

  // Deep copy (used by ARQ modules to keep retransmission copies).
  Result<PacketPtr> Clone(const Packet& src);

  std::size_t limit() const noexcept { return limit_; }
  // Bytes charged by live packets.
  std::size_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }

 private:
  friend class Packet;

  const std::size_t limit_;
  std::atomic<std::size_t> in_flight_{0};
};

}  // namespace cool::dacapo

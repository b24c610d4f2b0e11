#include "dacapo/t_modules.h"

#include <array>
#include <span>
#include <vector>

#include "common/logging.h"

namespace cool::dacapo {

namespace {

void NotifyPeerClosed(ModulePort& port) {
  ControlMsg msg;
  msg.kind = ControlMsg::Kind::kPeerClosed;
  msg.text = "transport closed";
  port.ControlUp(std::move(msg));
}

std::array<std::uint8_t, 4> LengthPrefix(std::size_t n) {
  return {static_cast<std::uint8_t>(n), static_cast<std::uint8_t>(n >> 8),
          static_cast<std::uint8_t>(n >> 16),
          static_cast<std::uint8_t>(n >> 24)};
}

}  // namespace

// --- TStreamModule ----------------------------------------------------------

Status TStreamModule::OnStart(ModulePort& port) {
  rx_thread_ = Thread(
      [this, &port](std::stop_token st) { RxLoop(port, st); });
  return Status::Ok();
}

void TStreamModule::OnStop(ModulePort& port) {
  (void)port;
  socket_->Close();  // wakes the rx thread out of Recv
  rx_thread_.request_stop();
  if (rx_thread_.joinable()) rx_thread_.join();
}

void TStreamModule::HandleData(Direction dir, PacketPtr pkt,
                               ModulePort& port) {
  if (dir == Direction::kUp) return;  // nothing below us
  const auto prefix = LengthPrefix(pkt->size());
  const std::span<const std::uint8_t> parts[] = {prefix, pkt->Data()};
  if (Status s = socket_->SendV(parts); !s.ok()) {
    NotifyPeerClosed(port);
  }
}

void TStreamModule::ProcessBurst(Direction dir, PacketBatch& batch,
                                 ModulePort& port) {
  if (dir == Direction::kUp) {  // nothing below us
    batch.Clear();
    return;
  }
  // Gather the whole train into one vectored send: a 32-packet burst costs
  // one socket call (one pacing/enqueue round-trip) instead of 64.
  std::array<std::array<std::uint8_t, 4>, PacketBatch::kCapacity> prefixes;
  std::array<std::span<const std::uint8_t>, 2 * PacketBatch::kCapacity> parts;
  const std::size_t n = batch.size();
  for (std::size_t i = 0; i < n; ++i) {
    prefixes[i] = LengthPrefix(batch[i]->size());
    parts[2 * i] = prefixes[i];
    parts[2 * i + 1] = batch[i]->Data();
  }
  if (Status s = socket_->SendV({parts.data(), 2 * n}); !s.ok()) {
    NotifyPeerClosed(port);
  }
  batch.Clear();
}

void TStreamModule::RxLoop(ModulePort& port, std::stop_token stop) {
  std::vector<PacketPtr> train;
  bool closed = false;
  while (!stop.stop_requested() && !closed) {
    train.clear();
    // Block for the first frame, then drain whatever is already deliverable
    // (up to a burst) so the train crosses the mailbox as one push and the
    // engine walks it as one burst.
    while (train.size() < PacketBatch::kCapacity) {
      std::array<std::uint8_t, 4> prefix;
      if (train.empty()) {
        if (!socket_->RecvExact(prefix).ok()) {
          closed = true;
          break;
        }
      } else {
        auto got = socket_->TryRecv(prefix);
        if (!got.ok()) {
          closed = true;
          break;
        }
        if (*got == 0) break;  // nothing more pending: flush what we have
        if (*got < prefix.size() &&
            !socket_->RecvExact(std::span(prefix).subspan(*got)).ok()) {
          closed = true;
          break;
        }
      }
      const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                                static_cast<std::uint32_t>(prefix[1]) << 8 |
                                static_cast<std::uint32_t>(prefix[2]) << 16 |
                                static_cast<std::uint32_t>(prefix[3]) << 24;
      if (len > port.budget().limit()) {  // could never be received
        COOL_LOG(kError, "dacapo")
            << port.channel_name() << "/t_stream: oversized frame " << len;
        closed = true;
        break;
      }
      auto pkt = port.Allocate(len);
      if (!pkt.ok()) {
        // Packet budget exhausted: drain the frame and drop it, as a NIC
        // with no receive descriptors would. Logging backs off
        // exponentially — a saturating sender can drop thousands of frames
        // per second, and a formatted WARN per frame throttles the very
        // receive loop that needs to catch up (the count lives on in
        // DescribeStats).
        std::vector<std::uint8_t> sink(len);
        if (!socket_->RecvExact(sink).ok()) {
          closed = true;
          break;
        }
        const std::uint64_t n =
            rx_drops_.fetch_add(1, std::memory_order_relaxed) + 1;
        if ((n & (n - 1)) == 0) {
          COOL_LOG(kWarn, "dacapo")
              << port.channel_name()
              << "/t_stream: budget full, frame dropped (" << n << " total)";
        }
        continue;
      }
      // Read directly into packet memory (no staging vector).
      PacketPtr p = std::move(pkt).value();
      auto body = p->WritablePayload(len);
      if (!body.ok()) continue;  // unreachable: allocated for len
      if (!socket_->RecvExact(*body).ok()) {
        closed = true;
        break;
      }
      train.push_back(std::move(p));
    }
    if (!train.empty()) port.ForwardUpBatch(train);
  }
  if (!stop.stop_requested()) NotifyPeerClosed(port);
}

std::string TStreamModule::DescribeStats() const {
  const std::uint64_t n = rx_drops_.load(std::memory_order_relaxed);
  return n == 0 ? "" : "rx_drops=" + std::to_string(n);
}

// --- TDatagramModule --------------------------------------------------------

Status TDatagramModule::OnStart(ModulePort& port) {
  rx_thread_ = Thread(
      [this, &port](std::stop_token st) { RxLoop(port, st); });
  return Status::Ok();
}

void TDatagramModule::OnStop(ModulePort& port) {
  (void)port;
  dgram_->Close();
  rx_thread_.request_stop();
  if (rx_thread_.joinable()) rx_thread_.join();
}

void TDatagramModule::HandleData(Direction dir, PacketPtr pkt,
                                 ModulePort& port) {
  if (dir == Direction::kUp) return;
  if (Status s = dgram_->SendTo(peer_, pkt->Data()); !s.ok()) {
    COOL_LOG(kWarn, "dacapo") << port.channel_name()
                              << "/t_datagram send failed: " << s;
  }
}

void TDatagramModule::RxLoop(ModulePort& port, std::stop_token stop) {
  std::vector<PacketPtr> train;
  while (!stop.stop_requested()) {
    // Block for the first datagram, drain any backlog non-blocking, and
    // forward the lot as one train.
    auto dgram = dgram_->Recv();
    if (!dgram.has_value()) break;  // port closed
    train.clear();
    for (;;) {
      auto pkt = port.Make(dgram->payload);
      if (!pkt.ok()) {
        const std::uint64_t n =
            rx_drops_.fetch_add(1, std::memory_order_relaxed) + 1;
        if ((n & (n - 1)) == 0) {
          COOL_LOG(kWarn, "dacapo")
              << port.channel_name() << "/t_datagram: budget full, drop ("
              << n << " total)";
        }
      } else {
        train.push_back(std::move(pkt).value());
      }
      if (train.size() >= PacketBatch::kCapacity) break;
      dgram = dgram_->TryRecv();
      if (!dgram.has_value()) break;
    }
    if (!train.empty()) port.ForwardUpBatch(train);
  }
  if (!stop.stop_requested()) NotifyPeerClosed(port);
}

std::string TDatagramModule::DescribeStats() const {
  const std::uint64_t n = rx_drops_.load(std::memory_order_relaxed);
  return n == 0 ? "" : "rx_drops=" + std::to_string(n);
}

}  // namespace cool::dacapo

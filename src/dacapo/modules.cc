#include "dacapo/modules.h"

#include <algorithm>

#include "common/logging.h"
#include "dacapo/checksum.h"

namespace cool::dacapo {

namespace {

// Little-endian header scratch helpers (module headers are fixed LE; the
// CDR byte-order machinery is an ORB concern, not a Da CaPo one).
void PutU32(std::uint8_t* out, std::uint32_t v) noexcept {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t GetU32(const std::uint8_t* in) noexcept {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

// ARQ packet types (shared by IRQ and go-back-N).
constexpr std::uint8_t kArqData = 0;
constexpr std::uint8_t kArqAck = 1;
constexpr std::size_t kArqHeaderSize = 5;  // type(1) + seq(4)

void ReportError(ModulePort& port, std::string_view who, std::string text) {
  ControlMsg msg;
  msg.kind = ControlMsg::Kind::kError;
  msg.text = std::string(who) + ": " + std::move(text);
  port.ControlUp(std::move(msg));
}

}  // namespace

// --- DummyModule ------------------------------------------------------------

void DummyModule::ProcessBurst(Direction dir, PacketBatch& batch,
                               ModulePort& port) {
  scratch_.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    scratch_.push_back(batch.Take(i));
  }
  batch.Compact();
  ForwardBatchOnward(dir, scratch_, port);
}

// --- ChecksumModule ---------------------------------------------------------

std::string_view ChecksumModule::name() const {
  switch (algo_) {
    case Algorithm::kParity: return "parity";
    case Algorithm::kCrc16: return "crc16";
    case Algorithm::kCrc32: return "crc32";
  }
  return "checksum";
}

std::size_t ChecksumModule::TrailerSize() const noexcept {
  switch (algo_) {
    case Algorithm::kParity: return 1;
    case Algorithm::kCrc16: return 2;
    case Algorithm::kCrc32: return 4;
  }
  return 0;
}

bool ChecksumModule::AppendChecksum(Packet& pkt, ModulePort& port) {
  std::uint8_t trailer[4];
  switch (algo_) {
    case Algorithm::kParity:
      trailer[0] = ParityByte(pkt.Data());
      break;
    case Algorithm::kCrc16: {
      const std::uint16_t c = Crc16(pkt.Data());
      trailer[0] = static_cast<std::uint8_t>(c);
      trailer[1] = static_cast<std::uint8_t>(c >> 8);
      break;
    }
    case Algorithm::kCrc32:
      PutU32(trailer, Crc32(pkt.Data()));
      break;
  }
  if (Status s = pkt.PushTrailer({trailer, TrailerSize()}); !s.ok()) {
    ReportError(port, name(), s.ToString());
    return false;  // packet dropped
  }
  return true;
}

bool ChecksumModule::VerifyAndStrip(Packet& pkt, ModulePort& port) {
  auto trailer = pkt.PopTrailer(TrailerSize());
  if (!trailer.ok()) {
    ++corrupted_dropped_;
    return false;  // truncated packet: drop
  }
  bool ok = false;
  switch (algo_) {
    case Algorithm::kParity:
      ok = (*trailer)[0] == ParityByte(pkt.Data());
      break;
    case Algorithm::kCrc16: {
      const std::uint16_t expect =
          static_cast<std::uint16_t>((*trailer)[0]) |
          static_cast<std::uint16_t>((*trailer)[1]) << 8;
      ok = expect == Crc16(pkt.Data());
      break;
    }
    case Algorithm::kCrc32:
      ok = GetU32(trailer->data()) == Crc32(pkt.Data());
      break;
  }
  if (!ok) {
    ++corrupted_dropped_;
    COOL_LOG(kDebug, "dacapo")
        << port.channel_name() << "/" << name() << ": checksum mismatch";
    return false;  // drop; an ARQ module above recovers
  }
  return true;
}

void ChecksumModule::HandleData(Direction dir, PacketPtr pkt,
                                ModulePort& port) {
  if (dir == Direction::kDown) {
    if (AppendChecksum(*pkt, port)) port.ForwardDown(std::move(pkt));
    return;
  }
  if (VerifyAndStrip(*pkt, port)) port.ForwardUp(std::move(pkt));
}

void ChecksumModule::ProcessBurst(Direction dir, PacketBatch& batch,
                                  ModulePort& port) {
  // The CRC kernels are vectorized per packet (checksum.cc); the burst
  // override amortizes dispatch and forwards survivors as one train.
  scratch_.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    PacketPtr pkt = batch.Take(i);
    const bool keep = dir == Direction::kDown ? AppendChecksum(*pkt, port)
                                              : VerifyAndStrip(*pkt, port);
    if (keep) scratch_.push_back(std::move(pkt));
  }
  batch.Compact();
  ForwardBatchOnward(dir, scratch_, port);
}

std::string ChecksumModule::DescribeStats() const {
  return "corrupted_dropped=" + std::to_string(corrupted_dropped());
}

// --- XorCipherModule --------------------------------------------------------

void XorCipherModule::HandleData(Direction dir, PacketPtr pkt,
                                 ModulePort& port) {
  XorCipher(pkt->Data(), key_);
  ForwardOnward(dir, std::move(pkt), port);
}

void XorCipherModule::ProcessBurst(Direction dir, PacketBatch& batch,
                                   ModulePort& port) {
  scratch_.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    PacketPtr pkt = batch.Take(i);
    XorCipher(pkt->Data(), key_);  // word-at-a-time kernel
    scratch_.push_back(std::move(pkt));
  }
  batch.Compact();
  ForwardBatchOnward(dir, scratch_, port);
}

// --- SequencerModule --------------------------------------------------------

void SequencerModule::HandleData(Direction dir, PacketPtr pkt,
                                 ModulePort& port) {
  if (dir == Direction::kDown) {
    std::uint8_t header[4];
    PutU32(header, tx_seq_++);
    if (Status s = pkt->PushHeader(header); !s.ok()) {
      ReportError(port, name(), s.ToString());
      return;
    }
    port.ForwardDown(std::move(pkt));
    return;
  }

  auto header = pkt->PopHeader(4);
  if (!header.ok()) return;  // malformed: drop
  const std::uint32_t seq = GetU32(header->data());

  if (seq == rx_expected_) {
    ++rx_expected_;
    release_scratch_.push_back(std::move(pkt));
    FlushInOrder(port);  // batches this packet with any unblocked followers
    return;
  }
  if (seq < rx_expected_) return;  // stale duplicate: drop

  // Out of order: buffer until the gap fills or times out.
  ++reordered_;
  if (rx_buffer_.empty()) oldest_buffered_at_ = Now();
  if (rx_buffer_.size() >= max_buffer_) SkipGap(port);
  rx_buffer_.emplace(seq, std::move(pkt));
}

void SequencerModule::CollectInOrder() {
  for (auto it = rx_buffer_.begin();
       it != rx_buffer_.end() && it->first == rx_expected_;) {
    release_scratch_.push_back(std::move(it->second));
    ++rx_expected_;
    it = rx_buffer_.erase(it);
  }
}

void SequencerModule::FlushInOrder(ModulePort& port) {
  CollectInOrder();
  port.ForwardUpBatch(release_scratch_);  // whole release train, one push
  if (!rx_buffer_.empty()) oldest_buffered_at_ = Now();
}

void SequencerModule::SkipGap(ModulePort& port) {
  if (rx_buffer_.empty()) return;
  ++skipped_;
  rx_expected_ = rx_buffer_.begin()->first;
  FlushInOrder(port);
}

void SequencerModule::OnTick(ModulePort& port) {
  if (!rx_buffer_.empty() && Now() - oldest_buffered_at_ > gap_timeout_) {
    SkipGap(port);
  }
}

void SequencerModule::ProcessBurst(Direction dir, PacketBatch& batch,
                                   ModulePort& port) {
  if (dir == Direction::kDown) {
    // Stamp the whole train, then forward it as one burst.
    tx_scratch_.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      PacketPtr pkt = batch.Take(i);
      std::uint8_t header[4];
      PutU32(header, tx_seq_++);
      if (Status s = pkt->PushHeader(header); !s.ok()) {
        ReportError(port, name(), s.ToString());
        continue;  // packet dropped; sequence number burned
      }
      tx_scratch_.push_back(std::move(pkt));
    }
    batch.Compact();
    port.ForwardDownBatch(tx_scratch_);
    return;
  }

  // Up: classify the whole train, releasing one in-order run at the end
  // instead of one ForwardUp per unblocked packet.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    PacketPtr pkt = batch.Take(i);
    auto header = pkt->PopHeader(4);
    if (!header.ok()) continue;  // malformed: drop
    const std::uint32_t seq = GetU32(header->data());
    if (seq == rx_expected_) {
      ++rx_expected_;
      release_scratch_.push_back(std::move(pkt));
      CollectInOrder();  // followers this packet unblocked
      continue;
    }
    if (seq < rx_expected_) continue;  // stale duplicate: drop
    ++reordered_;
    if (rx_buffer_.empty()) oldest_buffered_at_ = Now();
    if (rx_buffer_.size() >= max_buffer_) {
      ++skipped_;
      rx_expected_ = rx_buffer_.begin()->first;
      CollectInOrder();
    }
    rx_buffer_.emplace(seq, std::move(pkt));
  }
  batch.Compact();
  if (!release_scratch_.empty()) port.ForwardUpBatch(release_scratch_);
  if (!rx_buffer_.empty()) oldest_buffered_at_ = Now();
}

std::string SequencerModule::DescribeStats() const {
  return "reordered=" + std::to_string(reordered()) +
         " skipped=" + std::to_string(skipped());
}

// --- IrqModule --------------------------------------------------------------

void IrqModule::Transmit(Outstanding& o, ModulePort& port) {
  auto clone = port.Clone(*o.master);
  if (!clone.ok()) {
    COOL_LOG(kWarn, "dacapo") << port.channel_name()
                              << "/irq: clone failed, will retry on tick";
    return;
  }
  o.last_tx = Now();
  port.ForwardDown(std::move(clone).value());
}

void IrqModule::SendAck(std::uint32_t seq, ModulePort& port) {
  auto ack = port.Allocate(0);  // header only, in the headroom
  if (!ack.ok()) return;  // peer retransmits; next ACK attempt will succeed
  std::uint8_t header[kArqHeaderSize];
  header[0] = kArqAck;
  PutU32(header + 1, seq);
  if (!(*ack)->PushHeader(header).ok()) return;
  port.ForwardDown(std::move(ack).value());
}

void IrqModule::HandleData(Direction dir, PacketPtr pkt, ModulePort& port) {
  if (dir == Direction::kDown) {
    // The runtime only hands us a down packet when ReadyForDown() — i.e.
    // nothing is outstanding (stop-and-wait).
    Outstanding o;
    o.seq = tx_seq_++;
    std::uint8_t header[kArqHeaderSize];
    header[0] = kArqData;
    PutU32(header + 1, o.seq);
    if (Status s = pkt->PushHeader(header); !s.ok()) {
      ReportError(port, name(), s.ToString());
      return;
    }
    o.master = std::move(pkt);
    outstanding_ = std::move(o);
    Transmit(*outstanding_, port);
    return;
  }

  // Up path: DATA from the peer or ACK for our outstanding packet.
  auto header = pkt->PopHeader(kArqHeaderSize);
  if (!header.ok()) return;
  const std::uint8_t type = (*header)[0];
  const std::uint32_t seq = GetU32(header->data() + 1);

  if (type == kArqAck) {
    if (outstanding_ && seq == outstanding_->seq) {
      outstanding_.reset();  // window opens; runtime resumes down pops
    }
    return;
  }
  if (type != kArqData) return;  // unknown: drop

  if (seq == rx_expected_) {
    ++rx_expected_;
    SendAck(seq, port);
    port.ForwardUp(std::move(pkt));
  } else if (seq < rx_expected_) {
    SendAck(seq, port);  // duplicate: re-ACK so the sender can advance
  }
  // seq > rx_expected_ cannot happen with a stop-and-wait peer; drop.
}

void IrqModule::OnTick(ModulePort& port) {
  if (!outstanding_) return;
  if (Now() - outstanding_->last_tx < options_.rto) return;
  if (outstanding_->retries >= options_.max_retries) {
    ReportError(port, name(), "max retransmissions exceeded");
    outstanding_.reset();
    return;
  }
  ++outstanding_->retries;
  ++retransmissions_;
  Transmit(*outstanding_, port);
}

std::string IrqModule::DescribeStats() const {
  return "retransmissions=" + std::to_string(retransmissions());
}

// --- GoBackNModule ----------------------------------------------------------

void GoBackNModule::TransmitClone(const Packet& master, ModulePort& port) {
  auto clone = port.Clone(master);
  if (!clone.ok()) {
    COOL_LOG(kWarn, "dacapo") << port.channel_name()
                              << "/go_back_n: clone failed, retry on tick";
    return;
  }
  port.ForwardDown(std::move(clone).value());
}

void GoBackNModule::SendAck(ModulePort& port) {
  auto ack = port.Allocate(0);  // header only, in the headroom
  if (!ack.ok()) return;
  std::uint8_t header[kArqHeaderSize];
  header[0] = kArqAck;
  // Cumulative: acknowledges everything below rx_expected_.
  PutU32(header + 1, rx_expected_);
  if (!(*ack)->PushHeader(header).ok()) return;
  port.ForwardDown(std::move(ack).value());
}

void GoBackNModule::HandleData(Direction dir, PacketPtr pkt,
                               ModulePort& port) {
  if (dir == Direction::kDown) {
    const std::uint32_t seq = tx_next_++;
    std::uint8_t header[kArqHeaderSize];
    header[0] = kArqData;
    PutU32(header + 1, seq);
    if (Status s = pkt->PushHeader(header); !s.ok()) {
      ReportError(port, name(), s.ToString());
      return;
    }
    TransmitClone(*pkt, port);
    window_.emplace(seq, std::move(pkt));
    if (window_.size() == 1) last_progress_ = Now();
    return;
  }

  auto header = pkt->PopHeader(kArqHeaderSize);
  if (!header.ok()) return;
  const std::uint8_t type = (*header)[0];
  const std::uint32_t seq = GetU32(header->data() + 1);

  if (type == kArqAck) {
    // Cumulative ACK: `seq` is the receiver's next expected sequence.
    bool progressed = false;
    for (auto it = window_.begin();
         it != window_.end() && it->first < seq;) {
      it = window_.erase(it);
      progressed = true;
    }
    if (progressed) {
      last_progress_ = Now();
      retry_round_ = 0;
    }
    return;
  }
  if (type != kArqData) return;

  if (seq == rx_expected_) {
    ++rx_expected_;
    port.ForwardUp(std::move(pkt));
    SendAck(port);
  } else {
    // Out of order (go-back-N receiver accepts only in order): discard and
    // re-ACK so the sender learns where we are.
    SendAck(port);
  }
}

void GoBackNModule::ProcessBurst(Direction dir, PacketBatch& batch,
                                 ModulePort& port) {
  if (dir == Direction::kDown) {
    // Stamp and transmit while the window has room; the unconsumed tail
    // stays in the batch and the engine stalls it until ACKs open slots.
    std::size_t i = 0;
    for (; i < batch.size() && window_.size() < options_.window; ++i) {
      PacketPtr pkt = batch.Take(i);
      const std::uint32_t seq = tx_next_++;
      std::uint8_t header[kArqHeaderSize];
      header[0] = kArqData;
      PutU32(header + 1, seq);
      if (Status s = pkt->PushHeader(header); !s.ok()) {
        ReportError(port, name(), s.ToString());
        continue;
      }
      TransmitClone(*pkt, port);
      window_.emplace(seq, std::move(pkt));
      if (window_.size() == 1) last_progress_ = Now();
    }
    batch.Compact();
    return;
  }

  // Up: process the whole train, then answer it with ONE cumulative ACK
  // (it covers every in-order delivery and every out-of-order resync in
  // the train — per-packet ACKs here were pure overhead).
  bool saw_data = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    PacketPtr pkt = batch.Take(i);
    auto header = pkt->PopHeader(kArqHeaderSize);
    if (!header.ok()) continue;
    const std::uint8_t type = (*header)[0];
    const std::uint32_t seq = GetU32(header->data() + 1);
    if (type == kArqAck) {
      bool progressed = false;
      for (auto it = window_.begin();
           it != window_.end() && it->first < seq;) {
        it = window_.erase(it);
        progressed = true;
      }
      if (progressed) {
        last_progress_ = Now();
        retry_round_ = 0;
      }
      continue;
    }
    if (type != kArqData) continue;
    saw_data = true;
    if (seq == rx_expected_) {
      ++rx_expected_;
      port.ForwardUp(std::move(pkt));
    }
    // Out of order: discard; the train-level ACK below resyncs the sender.
  }
  batch.Compact();
  if (saw_data) SendAck(port);
}

void GoBackNModule::OnTick(ModulePort& port) {
  if (window_.empty()) return;
  if (Now() - last_progress_ < options_.rto) return;
  if (retry_round_ >= options_.max_retries) {
    ReportError(port, name(), "max retransmission rounds exceeded");
    window_.clear();
    return;
  }
  ++retry_round_;
  last_progress_ = Now();
  for (const auto& [seq, master] : window_) {
    ++retransmissions_;
    TransmitClone(*master, port);
  }
}

std::string GoBackNModule::DescribeStats() const {
  return "retransmissions=" + std::to_string(retransmissions());
}

// --- RateLimiterModule ------------------------------------------------------

void RateLimiterModule::Refill() {
  const TimePoint now = Now();
  const double elapsed = ToSeconds(now - last_refill_);
  last_refill_ = now;
  tokens_ = std::min(
      static_cast<double>(options_.burst_bytes),
      tokens_ + elapsed * static_cast<double>(options_.rate_bytes_per_sec));
}

void RateLimiterModule::TryRelease(ModulePort& port) {
  if (!held_) return;
  Refill();
  const auto need = static_cast<double>(held_->size());
  if (tokens_ >= need) {
    tokens_ -= need;
    port.ForwardDown(std::move(held_));
  }
}

void RateLimiterModule::HandleData(Direction dir, PacketPtr pkt,
                                   ModulePort& port) {
  if (dir == Direction::kUp) {
    port.ForwardUp(std::move(pkt));
    return;
  }
  Refill();
  const auto need = static_cast<double>(pkt->size());
  if (tokens_ >= need) {
    tokens_ -= need;
    port.ForwardDown(std::move(pkt));
  } else {
    held_ = std::move(pkt);  // ReadyForDown turns false until released
  }
}

void RateLimiterModule::OnTick(ModulePort& port) { TryRelease(port); }

void RateLimiterModule::ProcessBurst(Direction dir, PacketBatch& batch,
                                     ModulePort& port) {
  if (dir == Direction::kUp) {
    scratch_.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      scratch_.push_back(batch.Take(i));
    }
    batch.Compact();
    port.ForwardUpBatch(scratch_);
    return;
  }
  // One clock read / refill per train instead of one per packet.
  Refill();
  scratch_.clear();
  std::size_t i = 0;
  for (; i < batch.size(); ++i) {
    const auto need = static_cast<double>(batch[i]->size());
    if (tokens_ < need) break;
    tokens_ -= need;
    scratch_.push_back(batch.Take(i));
  }
  if (i < batch.size()) {
    // First unaffordable packet waits on the tick refill; the engine
    // stalls the truncated tail behind it (ReadyForDown is now false).
    held_ = batch.Take(i);
  }
  batch.Compact();
  port.ForwardDownBatch(scratch_);
}

// --- FragmentModule ----------------------------------------------------------

void FragmentModule::HandleData(Direction dir, PacketPtr pkt,
                                ModulePort& port) {
  constexpr std::uint8_t kLastFlag = 1;

  if (dir == Direction::kDown) {
    const auto data = pkt->Data();
    if (data.size() <= mtu_) {
      // Single-fragment fast path: still carries a header so the receiver
      // has one format to parse.
      std::uint8_t header[kHeaderSize];
      header[0] = kLastFlag;
      PutU32(header + 1, tx_msg_id_);
      header[5] = 0;
      header[6] = 0;
      ++tx_msg_id_;
      if (!pkt->PushHeader(header).ok()) {
        ReportError(port, name(), "no headroom for fragment header");
        return;
      }
      port.ForwardDown(std::move(pkt));
      return;
    }

    ++fragmented_;
    const std::uint32_t msg_id = tx_msg_id_++;
    std::uint16_t index = 0;
    std::vector<PacketPtr> train;  // whole message forwarded as one batch
    for (std::size_t offset = 0; offset < data.size(); offset += mtu_) {
      const std::size_t n = std::min(mtu_, data.size() - offset);
      auto fragment = port.Make(data.subspan(offset, n));
      if (!fragment.ok()) {
        // Budget backpressure: release what we already cut so downstream
        // can drain it, then wait for budget rather than tearing the
        // message in half. WaitBudget (not a plain sleep) keeps up-traffic
        // flowing while we wait — the window below us may need an ACK
        // before it releases the very packets we are waiting for.
        port.ForwardDownBatch(train);
        while (!fragment.ok() &&
               fragment.status().code() == ErrorCode::kResourceExhausted) {
          port.WaitBudget(microseconds(100));
          fragment = port.Make(data.subspan(offset, n));
        }
        if (!fragment.ok()) {
          ReportError(port, name(), fragment.status().ToString());
          return;
        }
      }
      std::uint8_t header[kHeaderSize];
      header[0] = (offset + n == data.size()) ? kLastFlag : 0;
      PutU32(header + 1, msg_id);
      header[5] = static_cast<std::uint8_t>(index);
      header[6] = static_cast<std::uint8_t>(index >> 8);
      ++index;
      if (!(*fragment)->PushHeader(header).ok()) {
        ReportError(port, name(), "no headroom for fragment header");
        return;  // collected fragments are released undelivered
      }
      train.push_back(std::move(fragment).value());
    }
    port.ForwardDownBatch(train);
    return;
  }

  // Up: reassemble.
  auto header = pkt->PopHeader(kHeaderSize);
  if (!header.ok()) {
    ++dropped_;
    return;
  }
  const bool last = ((*header)[0] & kLastFlag) != 0;
  const std::uint32_t msg_id = GetU32(header->data() + 1);
  const std::uint16_t index = static_cast<std::uint16_t>(
      (*header)[5] | static_cast<std::uint16_t>((*header)[6]) << 8);

  if (!rx_active_) {
    if (index != 0) {
      ++dropped_;  // tail of a message whose head we never saw
      return;
    }
    rx_active_ = true;
    rx_msg_id_ = msg_id;
    rx_next_index_ = 0;
    rx_buffer_.clear();
  } else if (msg_id != rx_msg_id_ || index != rx_next_index_) {
    // Fragment from a different/torn message: drop the partial assembly
    // and, if this is a fresh message head, restart with it.
    ++dropped_;
    rx_active_ = false;
    rx_buffer_.clear();
    if (index == 0) {
      rx_active_ = true;
      rx_msg_id_ = msg_id;
      rx_next_index_ = 0;
    } else {
      return;
    }
  }

  const auto data = pkt->Data();
  rx_buffer_.insert(rx_buffer_.end(), data.begin(), data.end());
  ++rx_next_index_;
  if (!last) return;

  rx_active_ = false;
  pkt.reset();  // free the fragment before allocating the full message
  auto assembled = port.Make(rx_buffer_);
  if (!assembled.ok()) {
    ++dropped_;
    ReportError(port, name(), assembled.status().ToString());
    return;
  }
  port.ForwardUp(std::move(assembled).value());
  rx_buffer_.clear();
}

std::string FragmentModule::DescribeStats() const {
  return "fragmented=" + std::to_string(fragmented()) +
         " dropped=" + std::to_string(dropped());
}

// --- AppAModule -------------------------------------------------------------

void AppAModule::HandleData(Direction dir, PacketPtr pkt, ModulePort& port) {
  if (dir == Direction::kDown) {
    {
      MutexLock lock(stats_mu_);
      ++stats_.packets_tx;
      stats_.bytes_tx += pkt->size();
    }
    port.ForwardDown(std::move(pkt));
    return;
  }

  {
    MutexLock lock(stats_mu_);
    ++stats_.packets_rx;
    stats_.bytes_rx += pkt->size();
    const TimePoint now = Now();
    if (stats_.first_rx == TimePoint{}) stats_.first_rx = now;
    stats_.last_rx = now;
  }
  if (mode_ == DeliveryMode::kQueue) {
    rx_queue_.Push(std::move(pkt));  // zero-copy handoff to the application
    if (rx_notify_) rx_notify_();
  }
  // kCountOnly: releasing the PacketPtr returns the buffer to the pool —
  // exactly the paper's measuring A-module behaviour.
}

void AppAModule::ProcessBurst(Direction dir, PacketBatch& batch,
                              ModulePort& port) {
  if (dir == Direction::kDown) {
    scratch_.clear();
    {
      MutexLock lock(stats_mu_);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ++stats_.packets_tx;
        stats_.bytes_tx += batch[i]->size();
        scratch_.push_back(batch.Take(i));
      }
    }
    batch.Compact();
    port.ForwardDownBatch(scratch_);
    return;
  }

  {
    MutexLock lock(stats_mu_);
    const TimePoint now = Now();
    if (stats_.first_rx == TimePoint{}) stats_.first_rx = now;
    stats_.last_rx = now;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ++stats_.packets_rx;
      stats_.bytes_rx += batch[i]->size();
    }
  }
  if (mode_ == DeliveryMode::kQueue) {
    scratch_.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      scratch_.push_back(batch.Take(i));
    }
    batch.Compact();
    rx_queue_.PushBatch(scratch_);  // one lock, whole train
    if (rx_notify_) rx_notify_();
    return;
  }
  batch.Clear();  // kCountOnly: buffers return to the pool
}

void AppAModule::OnStop(ModulePort& port) {
  (void)port;
  CloseRx();
}

void AppAModule::CloseRx() {
  rx_queue_.Close();
  if (rx_notify_) rx_notify_();
}

Result<PacketPtr> AppAModule::ReceivePacket(Duration timeout) {
  auto item = rx_queue_.PopFor(timeout);
  if (!item.has_value()) {
    if (rx_queue_.closed()) {
      return Status(UnavailableError("channel closed"));
    }
    return Status(DeadlineExceededError("receive timed out"));
  }
  return std::move(*item);
}

Result<PacketPtr> AppAModule::TryReceivePacket() {
  std::optional<PacketPtr> item = rx_queue_.TryPop();
  if (!item.has_value()) {
    if (rx_queue_.closed()) {
      return Status(UnavailableError("channel closed"));
    }
    return PacketPtr{};
  }
  return std::move(*item);
}

Result<std::vector<std::uint8_t>> AppAModule::Receive(Duration timeout) {
  COOL_ASSIGN_OR_RETURN(PacketPtr pkt, ReceivePacket(timeout));
  const auto data = pkt->Data();
  return std::vector<std::uint8_t>(data.begin(), data.end());
}

std::string AppAModule::DescribeStats() const {
  const Stats s = snapshot();
  return "tx=" + std::to_string(s.packets_tx) +
         " rx=" + std::to_string(s.packets_rx);
}

AppAModule::Stats AppAModule::snapshot() const {
  MutexLock lock(stats_mu_);
  return stats_;
}

void AppAModule::ResetStats() {
  MutexLock lock(stats_mu_);
  stats_ = Stats{};
}

}  // namespace cool::dacapo

// The layer-C protocol module library. Each class realizes one protocol
// *mechanism*; the configuration manager assembles them into module graphs
// that satisfy a requested QoS (paper §5.1):
//
//   function          mechanisms here
//   ----------------  ------------------------------------------
//   forwarding        DummyModule (the paper's no-op dummy)
//   error detection   ChecksumModule (parity | CRC16 | CRC32)
//   retransmission    IrqModule (idle-repeat-request / stop-and-wait),
//                     GoBackNModule (sliding window)
//   ordering          SequencerModule
//   encryption        XorCipherModule
//   flow control      RateLimiterModule (token bucket)
//   layer A           AppAModule (app queue + measurement counters)
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/blocking_queue.h"
#include "common/mutex.h"
#include "common/status.h"
#include "dacapo/module.h"

namespace cool::dacapo {

// ---------------------------------------------------------------------------
// DummyModule: forwards every packet unchanged. Used by the Fig. 9 benchmark
// to measure pure module-interface / queue-hop overhead.
class DummyModule : public Module {
 public:
  std::string_view name() const override { return "dummy"; }
  void HandleData(Direction dir, PacketPtr pkt, ModulePort& port) override {
    ForwardOnward(dir, std::move(pkt), port);
  }
  void ProcessBurst(Direction dir, PacketBatch& batch,
                    ModulePort& port) override;

 private:
  std::vector<PacketPtr> scratch_;  // burst staging
};

// ---------------------------------------------------------------------------
// ChecksumModule: appends a checksum trailer on the way down, verifies and
// strips it on the way up. Corrupt packets are dropped and reported via a
// control message (an ARQ module above recovers them by retransmission).
class ChecksumModule : public Module {
 public:
  enum class Algorithm { kParity, kCrc16, kCrc32 };

  explicit ChecksumModule(Algorithm algo) : algo_(algo) {}

  std::string_view name() const override;
  void HandleData(Direction dir, PacketPtr pkt, ModulePort& port) override;
  void ProcessBurst(Direction dir, PacketBatch& batch,
                    ModulePort& port) override;

  std::uint64_t corrupted_dropped() const noexcept {
    return corrupted_dropped_.load(std::memory_order_relaxed);
  }
  std::string DescribeStats() const override;

 private:
  std::size_t TrailerSize() const noexcept;
  // Returns false when the packet must be dropped (error already reported
  // / counted).
  bool AppendChecksum(Packet& pkt, ModulePort& port);
  bool VerifyAndStrip(Packet& pkt, ModulePort& port);

  const Algorithm algo_;
  std::atomic<std::uint64_t> corrupted_dropped_{0};
  std::vector<PacketPtr> scratch_;  // burst staging
};

// ---------------------------------------------------------------------------
// XorCipherModule: encrypts downwards, decrypts upwards, with a shared
// symmetric key agreed out of band (connection setup).
class XorCipherModule : public Module {
 public:
  explicit XorCipherModule(std::uint64_t key) : key_(key) {}

  std::string_view name() const override { return "xor_cipher"; }
  void HandleData(Direction dir, PacketPtr pkt, ModulePort& port) override;
  void ProcessBurst(Direction dir, PacketBatch& batch,
                    ModulePort& port) override;

 private:
  const std::uint64_t key_;
  std::vector<PacketPtr> scratch_;  // burst staging
};

// ---------------------------------------------------------------------------
// SequencerModule: stamps a 4-octet sequence number downwards; upwards it
// releases packets in order, buffering out-of-order arrivals. A gap that
// does not fill within `gap_timeout` is skipped (the mechanism provides
// ordering, not reliability).
class SequencerModule : public Module {
 public:
  explicit SequencerModule(Duration gap_timeout = milliseconds(50),
                           std::size_t max_buffer = 64)
      : gap_timeout_(gap_timeout), max_buffer_(max_buffer) {}

  std::string_view name() const override { return "sequencer"; }
  void HandleData(Direction dir, PacketPtr pkt, ModulePort& port) override;
  // Burst: stamps a whole down-train before one downstream hop; releases a
  // whole in-order up-run as one train.
  void ProcessBurst(Direction dir, PacketBatch& batch,
                    ModulePort& port) override;
  std::optional<Duration> TickInterval() const override {
    return gap_timeout_ / 2;
  }
  void OnTick(ModulePort& port) override;

  std::uint64_t reordered() const noexcept {
    return reordered_.load(std::memory_order_relaxed);
  }
  std::uint64_t skipped() const noexcept {
    return skipped_.load(std::memory_order_relaxed);
  }
  std::string DescribeStats() const override;

 private:
  // Moves the in-order run at the head of rx_buffer_ into release_scratch_
  // (no forwarding — bursts release once per train).
  void CollectInOrder();
  void FlushInOrder(ModulePort& port);
  void SkipGap(ModulePort& port);

  const Duration gap_timeout_;
  const std::size_t max_buffer_;

  std::uint32_t tx_seq_ = 0;
  std::uint32_t rx_expected_ = 0;
  std::map<std::uint32_t, PacketPtr> rx_buffer_;
  std::vector<PacketPtr> release_scratch_;  // in-order release staging
  std::vector<PacketPtr> tx_scratch_;       // down-train staging
  TimePoint oldest_buffered_at_{};
  std::atomic<std::uint64_t> reordered_{0};
  std::atomic<std::uint64_t> skipped_{0};
};

// ---------------------------------------------------------------------------
// IrqModule: the paper's idle-repeat-request mechanism — stop-and-wait ARQ.
// At most one packet is outstanding; the next down packet is only accepted
// after the ACK arrives (ReadyForDown backpressure). This is deliberately
// the *ineffective flow control* the paper measures in Fig. 9.
class IrqModule : public Module {
 public:
  struct Options {
    Duration rto = milliseconds(20);
    int max_retries = 10;
  };

  IrqModule() : options_() {}
  explicit IrqModule(Options options) : options_(options) {}

  std::string_view name() const override { return "irq"; }
  void HandleData(Direction dir, PacketPtr pkt, ModulePort& port) override;
  bool ReadyForDown() const override { return !outstanding_.has_value(); }
  std::optional<Duration> TickInterval() const override {
    return options_.rto / 2;
  }
  void OnTick(ModulePort& port) override;

  std::uint64_t retransmissions() const noexcept {
    return retransmissions_.load(std::memory_order_relaxed);
  }
  std::string DescribeStats() const override;

 private:
  struct Outstanding {
    PacketPtr master;  // header already pushed; clones are transmitted
    std::uint32_t seq = 0;
    TimePoint last_tx{};
    int retries = 0;
  };

  void Transmit(Outstanding& o, ModulePort& port);
  void SendAck(std::uint32_t seq, ModulePort& port);

  const Options options_;
  std::uint32_t tx_seq_ = 0;
  std::uint32_t rx_expected_ = 0;
  std::optional<Outstanding> outstanding_;
  std::atomic<std::uint64_t> retransmissions_{0};
};

// ---------------------------------------------------------------------------
// GoBackNModule: sliding-window ARQ with cumulative ACKs — the efficient
// retransmission mechanism the configuration manager prefers for
// throughput-sensitive QoS.
class GoBackNModule : public Module {
 public:
  struct Options {
    std::size_t window = 32;
    Duration rto = milliseconds(20);
    int max_retries = 10;
  };

  GoBackNModule() : options_() {}
  explicit GoBackNModule(Options options) : options_(options) {}

  std::string_view name() const override { return "go_back_n"; }
  void HandleData(Direction dir, PacketPtr pkt, ModulePort& port) override;
  // Burst: stamps/transmits while the window has room (truncating the
  // rest), and answers a whole up-train with ONE cumulative ACK.
  void ProcessBurst(Direction dir, PacketBatch& batch,
                    ModulePort& port) override;
  bool ReadyForDown() const override {
    return window_.size() < options_.window;
  }
  std::optional<Duration> TickInterval() const override {
    return options_.rto / 2;
  }
  void OnTick(ModulePort& port) override;

  std::uint64_t retransmissions() const noexcept {
    return retransmissions_.load(std::memory_order_relaxed);
  }
  std::string DescribeStats() const override;

 private:
  void TransmitClone(const Packet& master, ModulePort& port);
  void SendAck(ModulePort& port);

  const Options options_;
  std::uint32_t tx_next_ = 0;
  std::uint32_t rx_expected_ = 0;
  std::map<std::uint32_t, PacketPtr> window_;  // unacked masters, by seq
  TimePoint last_progress_{};
  int retry_round_ = 0;
  std::atomic<std::uint64_t> retransmissions_{0};
};

// ---------------------------------------------------------------------------
// RateLimiterModule: token-bucket flow control on the down path.
class RateLimiterModule : public Module {
 public:
  struct Options {
    std::uint64_t rate_bytes_per_sec = 1'000'000;
    std::uint64_t burst_bytes = 64 * 1024;
  };

  explicit RateLimiterModule(Options options)
      : options_(options),
        tokens_(static_cast<double>(options.burst_bytes)),
        last_refill_(Now()) {}

  std::string_view name() const override { return "rate_limiter"; }
  void HandleData(Direction dir, PacketPtr pkt, ModulePort& port) override;
  // Burst: one Refill per train; consumes while tokens last, holds the
  // first unaffordable packet and truncates the rest.
  void ProcessBurst(Direction dir, PacketBatch& batch,
                    ModulePort& port) override;
  bool ReadyForDown() const override { return held_ == nullptr; }
  std::optional<Duration> TickInterval() const override {
    return milliseconds(1);
  }
  void OnTick(ModulePort& port) override;

 private:
  void Refill();
  void TryRelease(ModulePort& port);

  const Options options_;
  double tokens_;
  TimePoint last_refill_;
  PacketPtr held_;  // one packet waiting for tokens
  std::vector<PacketPtr> scratch_;  // burst staging
};

// ---------------------------------------------------------------------------
// FragmentModule: splits down-travelling packets into fragments of at most
// `mtu` payload octets and reassembles them on the way up. Placed above
// mechanisms whose service unit is the network packet (ARQ, checksums) so
// that application messages larger than the T service's MTU still fit.
// Reassembly relies on in-order delivery below (stream T or an ARQ
// mechanism); an interleaved or missing fragment aborts the current
// reassembly and drops the message (counted).
class FragmentModule : public Module {
 public:
  explicit FragmentModule(std::size_t mtu) : mtu_(mtu) {}

  std::string_view name() const override { return "fragment"; }
  void HandleData(Direction dir, PacketPtr pkt, ModulePort& port) override;

  std::uint64_t fragmented() const noexcept {
    return fragmented_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::string DescribeStats() const override;

 private:
  // Header: [flags:1][msg_id:4][index:2]; flags bit0 = last fragment.
  static constexpr std::size_t kHeaderSize = 7;

  const std::size_t mtu_;
  std::uint32_t tx_msg_id_ = 0;
  std::atomic<std::uint64_t> fragmented_{0};
  std::atomic<std::uint64_t> dropped_{0};

  // Reassembly state (single message at a time; below-us delivery is in
  // order by construction).
  std::uint32_t rx_msg_id_ = 0;
  std::uint16_t rx_next_index_ = 0;
  std::vector<std::uint8_t> rx_buffer_;
  bool rx_active_ = false;
};

// ---------------------------------------------------------------------------
// AppAModule: the layer-A module. Downwards it counts transmitted traffic;
// upwards it either queues payloads for the application or (kCountOnly, the
// paper's measuring A-module) releases the buffers immediately and only
// counts — "on the receiver side received packets pr time interval is
// counted, the packet buffers are released".
class AppAModule : public Module {
 public:
  enum class DeliveryMode { kQueue, kCountOnly };

  struct Stats {
    std::uint64_t packets_tx = 0;
    std::uint64_t bytes_tx = 0;
    std::uint64_t packets_rx = 0;
    std::uint64_t bytes_rx = 0;
    TimePoint first_rx{};
    TimePoint last_rx{};
  };

  explicit AppAModule(DeliveryMode mode = DeliveryMode::kQueue)
      : mode_(mode) {}

  std::string_view name() const override { return "app_a"; }
  void HandleData(Direction dir, PacketPtr pkt, ModulePort& port) override;
  // Burst: one stats-lock acquisition and one rx-queue push per train.
  void ProcessBurst(Direction dir, PacketBatch& batch,
                    ModulePort& port) override;
  void OnStop(ModulePort& port) override;

  // Application receive side (kQueue mode). Blocks up to `timeout`. The
  // packet variant hands out the received packet itself (zero-copy); the
  // vector variant is a thin copying wrapper kept for convenience. Held
  // PacketPtrs stay charged to the plane's budget, so a slow application
  // exerts memory backpressure instead of growing an unbounded queue.
  Result<PacketPtr> ReceivePacket(Duration timeout);
  Result<std::vector<std::uint8_t>> Receive(Duration timeout);

  // Non-blocking receive: a null PacketPtr when nothing is queued right
  // now, kUnavailable once the queue is closed and drained.
  Result<PacketPtr> TryReceivePacket();

  // Closes the receive queue (as stopping does): receivers drain it, then
  // fail with kUnavailable; later deliveries are dropped. Thread-safe.
  void CloseRx();

  // Called after each upward delivery (and on close) so a reactor-attached
  // session can be signalled without the application parking a thread in
  // ReceivePacket. Set before the chain starts; not synchronised against
  // concurrent delivery.
  void SetRxNotify(std::function<void()> notify) {
    rx_notify_ = std::move(notify);
  }

  Stats snapshot() const;
  void ResetStats();
  std::string DescribeStats() const override;

 private:
  const DeliveryMode mode_;
  mutable Mutex stats_mu_{LockRank::kLeaf, "dacapo::AppAModule::stats_mu_"};
  Stats stats_ COOL_GUARDED_BY(stats_mu_);
  BlockingQueue<PacketPtr> rx_queue_;
  std::function<void()> rx_notify_;
  std::vector<PacketPtr> scratch_;  // burst staging
};

}  // namespace cool::dacapo

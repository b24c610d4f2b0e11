// In-process simulated network. Replaces the paper's testbed (ATM link +
// ChorusOS endsystems) with real threads exchanging bytes through paced,
// delayed, optionally lossy in-memory channels:
//
//  * StreamSocket — reliable FIFO byte stream ("TCP"): pacing to the link
//    bandwidth + propagation delay, no loss, no reorder.
//  * DatagramPort — unreliable message port (raw "layer T" service and the
//    Chorus-IPC analogue): pacing, delay, jitter (which may reorder), loss.
//
// All delays are real wall-clock delays, so throughput/latency measured by
// the benchmarks is real measured behaviour of the running protocol stack,
// not a closed-form model.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "sim/address.h"
#include "sim/link.h"
#include "sim/waitset.h"

namespace cool::sim {

class Network;
class StreamSocket;

struct Datagram {
  Address from;
  std::vector<std::uint8_t> payload;
};

namespace internal {

// One direction of a stream connection: a bounded queue of timed chunks.
class StreamPipe {
 public:
  StreamPipe(LinkProperties link, std::size_t window_bytes)
      : link_(link), window_bytes_(window_bytes) {}

  // Paces the caller to the link bandwidth, then enqueues the bytes with
  // delivery time now+latency. Blocks while the receive window is full.
  // Fails with kUnavailable once the pipe is closed.
  Status Write(std::span<const std::uint8_t> data);

  // Gathered write: the concatenation of `parts` is paced and enqueued as
  // one chunk — a writev for the simulated stream. The reader cannot tell
  // it apart from Write(join(parts)). With `window_wait`, a window that
  // stays full that long fails the write with kDeadlineExceeded; nothing
  // is enqueued, so the byte stream stays intact.
  Status WriteV(std::span<const std::span<const std::uint8_t>> parts,
                std::optional<Duration> window_wait = std::nullopt);

  // Blocks until at least one ready octet is available (or the pipe is
  // closed and drained -> kUnavailable; or `deadline` passes ->
  // kDeadlineExceeded). Returns the number of octets copied, up to
  // out.size().
  Result<std::size_t> Read(std::span<std::uint8_t> out,
                           std::optional<TimePoint> deadline = std::nullopt);

  // Non-blocking read: copies any deliverable octets and returns the count
  // (0 when nothing is due yet — a watcher is re-armed for the head chunk's
  // delivery time); kUnavailable once closed and drained.
  Result<std::size_t> TryRead(std::span<std::uint8_t> out);

  // Attaches the read side to `set`: every delivery and Close() signals
  // `token` at the moment the data becomes readable.
  void WatchRead(const WaitSet& set, WaitSet::Token token);

  void Close();

 private:
  std::size_t DrainReadyLocked(std::span<std::uint8_t> out)
      COOL_REQUIRES(mu_);

  struct Chunk {
    TimePoint ready;
    std::vector<std::uint8_t> data;
    std::size_t offset = 0;
  };

  // Bound on recycled chunk backing stores (the NIC-ring analogue: a
  // drained chunk's storage is reused by a later write instead of being
  // freed, so a steady request/reply exchange allocates nothing here).
  static constexpr std::size_t kMaxSpareChunks = 8;
  // Consumed-prefix bound of the chunk FIFO before it compacts.
  static constexpr std::size_t kCompactChunks = 32;

  // FIFO accessors over chunks_/chunks_head_ (see below).
  bool HasChunkLocked() const COOL_REQUIRES(mu_) {
    return chunks_head_ < chunks_.size();
  }
  Chunk& FrontChunkLocked() COOL_REQUIRES(mu_) { return chunks_[chunks_head_]; }
  void PopChunkLocked() COOL_REQUIRES(mu_) {
    if (++chunks_head_ == chunks_.size()) {
      chunks_.clear();
      chunks_head_ = 0;
    } else if (chunks_head_ >= kCompactChunks) {
      chunks_.erase(chunks_.begin(),
                    chunks_.begin() + static_cast<std::ptrdiff_t>(chunks_head_));
      chunks_head_ = 0;
    }
  }

  const LinkProperties link_;
  const std::size_t window_bytes_;

  Mutex mu_{LockRank::kSimNetwork, "sim::StreamPipe::mu_"};
  CondVar readable_;
  CondVar writable_;
  Watchable read_watch_;  // internally synchronised
  // In-flight chunk FIFO as vector + head index rather than std::deque: a
  // default-constructed deque eagerly allocates its map + first node
  // (~576 bytes in libstdc++), which at 100k connections — two pipes each
  // — dominated the idle per-connection footprint. An idle pipe holds no
  // chunk heap at all.
  std::vector<Chunk> chunks_ COOL_GUARDED_BY(mu_);
  std::size_t chunks_head_ COOL_GUARDED_BY(mu_) = 0;
  std::vector<std::vector<std::uint8_t>> spare_ COOL_GUARDED_BY(mu_);
  std::size_t buffered_bytes_ COOL_GUARDED_BY(mu_) = 0;
  TimePoint link_free_at_ COOL_GUARDED_BY(mu_){};
  bool closed_ COOL_GUARDED_BY(mu_) = false;
};

// Shared accept queue: outlives the Listener wrapper so an in-flight
// Connect never dereferences a destroyed listener.
struct AcceptQueue {
  Mutex mu{LockRank::kSimNetwork, "sim::AcceptQueue::mu"};
  CondVar cv;
  Watchable watch;  // internally synchronised
  std::deque<std::unique_ptr<StreamSocket>> pending COOL_GUARDED_BY(mu);
  bool closed COOL_GUARDED_BY(mu) = false;

  void Enqueue(std::unique_ptr<StreamSocket> socket);
  Result<std::unique_ptr<StreamSocket>> Pop();
  Result<std::unique_ptr<StreamSocket>> PopFor(Duration timeout);
  // Non-blocking accept: a null socket (no error) means nothing pending.
  Result<std::unique_ptr<StreamSocket>> TryPop();
  void WatchAccept(const WaitSet& set, WaitSet::Token token);
  void Close();
};

struct TimedDatagram {
  TimePoint ready;
  std::uint64_t seq = 0;  // tie-break keeps delivery deterministic
  Datagram dgram;
  friend bool operator>(const TimedDatagram& a, const TimedDatagram& b) {
    return a.ready != b.ready ? a.ready > b.ready : a.seq > b.seq;
  }
};

// Shared receive queue of a datagram port (same lifetime rationale).
struct DatagramQueue {
  mutable Mutex mu{LockRank::kSimNetwork, "sim::DatagramQueue::mu"};
  CondVar cv;
  Watchable watch;  // internally synchronised
  std::priority_queue<TimedDatagram, std::vector<TimedDatagram>,
                      std::greater<>>
      rx COOL_GUARDED_BY(mu);
  std::uint64_t next_seq COOL_GUARDED_BY(mu) = 0;
  bool closed COOL_GUARDED_BY(mu) = false;

  void Deliver(TimePoint ready, Address from,
               std::vector<std::uint8_t> payload);
  // Blocks until the earliest datagram is deliverable; nullopt when closed
  // (Pop) or when the deadline passes first (PopFor).
  std::optional<Datagram> Pop();
  std::optional<Datagram> PopFor(Duration timeout);
  // Non-blocking: nullopt when nothing is deliverable yet (a watcher is
  // re-armed for the head datagram's arrival) — check depleted() to tell
  // "not yet" from "closed and drained".
  std::optional<Datagram> TryPop();
  bool depleted() const;
  void WatchRecv(const WaitSet& set, WaitSet::Token token);
  void Close();
};

}  // namespace internal

// Reliable bidirectional byte stream between two simulated hosts.
class StreamSocket {
 public:
  StreamSocket(Address local, Address remote,
               std::shared_ptr<internal::StreamPipe> tx,
               std::shared_ptr<internal::StreamPipe> rx)
      : local_(std::move(local)),
        remote_(std::move(remote)),
        tx_(std::move(tx)),
        rx_(std::move(rx)) {}

  ~StreamSocket() { Close(); }

  StreamSocket(const StreamSocket&) = delete;
  StreamSocket& operator=(const StreamSocket&) = delete;

  Status Send(std::span<const std::uint8_t> data) { return tx_->Write(data); }

  // Gathered send (writev): `parts` leave as one contiguous write. See
  // StreamPipe::WriteV for `window_wait`.
  Status SendV(std::span<const std::span<const std::uint8_t>> parts,
               std::optional<Duration> window_wait = std::nullopt) {
    return tx_->WriteV(parts, window_wait);
  }

  // Reads up to out.size() octets; blocks for at least one.
  Result<std::size_t> Recv(std::span<std::uint8_t> out) {
    return rx_->Read(out);
  }

  // As Recv, but gives up with kDeadlineExceeded after `timeout`.
  Result<std::size_t> RecvFor(std::span<std::uint8_t> out, Duration timeout) {
    return rx_->Read(out, DeadlineFor(timeout));
  }

  // Reads exactly out.size() octets or fails.
  Status RecvExact(std::span<std::uint8_t> out);

  // Non-blocking read: 0 (no error) when nothing is deliverable yet;
  // kUnavailable once the peer closed and the stream is drained.
  Result<std::size_t> TryRecv(std::span<std::uint8_t> out) {
    return rx_->TryRead(out);
  }

  // Signals `token` on `set` whenever TryRecv may make progress.
  void WatchRecv(const WaitSet& set, WaitSet::Token token) {
    rx_->WatchRead(set, token);
  }

  // Closes both directions (peer reads drain then see kUnavailable).
  void Close() {
    tx_->Close();
    rx_->Close();
  }

  const Address& local() const noexcept { return local_; }
  const Address& remote() const noexcept { return remote_; }

 private:
  Address local_;
  Address remote_;
  std::shared_ptr<internal::StreamPipe> tx_;
  std::shared_ptr<internal::StreamPipe> rx_;
};

// Passive side of stream setup.
class Listener {
 public:
  Listener(Network* net, Address addr,
           std::shared_ptr<internal::AcceptQueue> queue)
      : net_(net), addr_(std::move(addr)), queue_(std::move(queue)) {}
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Blocks until a peer connects or the listener is closed (kUnavailable).
  Result<std::unique_ptr<StreamSocket>> Accept() { return queue_->Pop(); }
  Result<std::unique_ptr<StreamSocket>> AcceptFor(Duration timeout) {
    return queue_->PopFor(timeout);
  }

  // Non-blocking accept: a null socket (no error) means nothing pending.
  Result<std::unique_ptr<StreamSocket>> TryAccept() {
    return queue_->TryPop();
  }

  // Signals `token` on `set` whenever a connection is waiting to accept.
  void WatchAccept(const WaitSet& set, WaitSet::Token token) {
    queue_->WatchAccept(set, token);
  }

  void Close() { queue_->Close(); }

  const Address& address() const noexcept { return addr_; }

 private:
  friend class Network;

  Network* net_;
  Address addr_;
  std::shared_ptr<internal::AcceptQueue> queue_;
};

// Unreliable message port.
class DatagramPort {
 public:
  DatagramPort(Network* net, Address addr,
               std::shared_ptr<internal::DatagramQueue> queue)
      : net_(net), addr_(std::move(addr)), queue_(std::move(queue)) {}
  ~DatagramPort();

  DatagramPort(const DatagramPort&) = delete;
  DatagramPort& operator=(const DatagramPort&) = delete;

  // Paces to link bandwidth; the datagram may be dropped (loss_rate),
  // delayed (latency + jitter) and consequently reordered.
  Status SendTo(const Address& dst, std::span<const std::uint8_t> payload);

  // Gathered variant: the concatenation of `parts` forms one datagram.
  Status SendToV(const Address& dst,
                 std::span<const std::span<const std::uint8_t>> parts);

  // Blocks until a datagram is deliverable or the port is closed.
  std::optional<Datagram> Recv() { return queue_->Pop(); }
  std::optional<Datagram> RecvFor(Duration timeout) {
    return queue_->PopFor(timeout);
  }

  // Non-blocking: nullopt when nothing is deliverable yet; depleted()
  // distinguishes "not yet" from "closed and drained".
  std::optional<Datagram> TryRecv() { return queue_->TryPop(); }
  bool depleted() const { return queue_->depleted(); }

  // Signals `token` on `set` whenever TryRecv may make progress.
  void WatchRecv(const WaitSet& set, WaitSet::Token token) {
    queue_->WatchRecv(set, token);
  }

  void Close() { queue_->Close(); }

  const Address& address() const noexcept { return addr_; }

 private:
  friend class Network;

  Network* net_;
  Address addr_;
  std::shared_ptr<internal::DatagramQueue> queue_;

  Mutex tx_mu_{LockRank::kSimNetwork, "sim::DatagramPort::tx_mu_"};
  TimePoint link_free_at_ COOL_GUARDED_BY(tx_mu_){};
};

// The network fabric: host-pair link properties plus the registries of
// listeners and datagram ports. Must outlive every Listener/Port/Socket
// created through it.
class Network {
 public:
  explicit Network(LinkProperties default_link = {},
                   std::uint64_t rng_seed = 1)
      : default_link_(default_link), rng_(rng_seed) {}

  // Symmetric per-host-pair override.
  void SetLink(const std::string& host_a, const std::string& host_b,
               LinkProperties props);
  LinkProperties LinkBetween(const std::string& a, const std::string& b) const;

  Result<std::unique_ptr<Listener>> Listen(const Address& addr);

  // Establishes a stream from `local_host` to `remote`. The handshake costs
  // one round-trip of the link latency, as TCP connection setup would.
  Result<std::unique_ptr<StreamSocket>> Connect(const std::string& local_host,
                                                const Address& remote);

  Result<std::unique_ptr<DatagramPort>> OpenPort(const Address& addr);

 private:
  friend class Listener;
  friend class DatagramPort;

  void Unregister(const Listener* listener);
  void UnregisterPort(const DatagramPort* port);

  // Datagram fan-in used by DatagramPort::SendTo (applies loss + jitter).
  Status RouteDatagram(const Address& from, const Address& dst,
                       std::vector<std::uint8_t> payload,
                       TimePoint earliest_arrival);

  bool RollLossLocked(double p) COOL_REQUIRES(mu_);
  Duration RollJitterLocked(Duration max_jitter) COOL_REQUIRES(mu_);

  const LinkProperties default_link_;

  mutable Mutex mu_{LockRank::kSimNetwork, "sim::Network::mu_"};
  std::unordered_map<Address, std::shared_ptr<internal::AcceptQueue>,
                     AddressHash>
      listeners_ COOL_GUARDED_BY(mu_);
  std::unordered_map<Address, std::shared_ptr<internal::DatagramQueue>,
                     AddressHash>
      ports_ COOL_GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>, LinkProperties> links_
      COOL_GUARDED_BY(mu_);
  Rng rng_ COOL_GUARDED_BY(mu_);
  std::uint16_t next_ephemeral_ COOL_GUARDED_BY(mu_) = 40000;
};

}  // namespace cool::sim

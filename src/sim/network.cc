#include "sim/network.h"

#include <algorithm>

#include "common/logging.h"

namespace cool::sim {

namespace internal {

Status StreamPipe::Write(std::span<const std::uint8_t> data) {
  const std::span<const std::uint8_t> one[] = {data};
  return WriteV(one);
}

Status StreamPipe::WriteV(std::span<const std::span<const std::uint8_t>> parts,
                          std::optional<Duration> window_wait) {
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  if (total == 0) return Status::Ok();

  // Pace: the link is busy until every previously written octet has been
  // serialized; this write extends that horizon.
  TimePoint send_done;
  {
    MutexLock lock(mu_);
    if (closed_) return UnavailableError("stream closed");
    const TimePoint start = std::max(Now(), link_free_at_);
    send_done = start + link_.SerializationDelay(total);
    link_free_at_ = send_done;
  }
  PreciseSleep(send_done - Now());

  MutexLock lock(mu_);
  if (window_wait.has_value()) {
    const TimePoint deadline = DeadlineFor(*window_wait);
    while (!closed_ && buffered_bytes_ >= window_bytes_) {
      if (Now() >= deadline) {
        return DeadlineExceededError("stream write timed out: window full");
      }
      writable_.WaitUntil(mu_, deadline);
    }
  } else {
    while (!closed_ && buffered_bytes_ >= window_bytes_) writable_.Wait(mu_);
  }
  if (closed_) return UnavailableError("stream closed");

  Chunk chunk;
  const TimePoint deliver_at = send_done + link_.latency;
  chunk.ready = deliver_at;
  if (!spare_.empty()) {
    chunk.data = std::move(spare_.back());  // recycled backing store
    spare_.pop_back();
  }
  chunk.data.reserve(total);
  for (const auto& part : parts) {
    chunk.data.insert(chunk.data.end(), part.begin(), part.end());
  }
  buffered_bytes_ += total;
  chunks_.push_back(std::move(chunk));
  readable_.NotifyOne();  // under the lock: destruction-safe
  read_watch_.SignalReady(deliver_at);
  return Status::Ok();
}

Result<std::size_t> StreamPipe::Read(std::span<std::uint8_t> out,
                                     std::optional<TimePoint> deadline) {
  if (out.empty()) return std::size_t{0};
  MutexLock lock(mu_);
  for (;;) {
    if (HasChunkLocked()) {
      const TimePoint ready = FrontChunkLocked().ready;
      if (ready <= Now()) break;
      if (deadline.has_value() && ready > *deadline) {
        if (Now() >= *deadline) {
          return Status(DeadlineExceededError("stream read timed out"));
        }
        readable_.WaitUntil(mu_, *deadline);
      } else {
        readable_.WaitUntil(mu_, ready);
      }
      continue;
    }
    if (closed_) return Status(UnavailableError("stream closed by peer"));
    if (deadline.has_value()) {
      if (Now() >= *deadline) {
        return Status(DeadlineExceededError("stream read timed out"));
      }
      readable_.WaitUntil(mu_, *deadline);
    } else {
      readable_.Wait(mu_);
    }
  }

  return DrainReadyLocked(out);
}

std::size_t StreamPipe::DrainReadyLocked(std::span<std::uint8_t> out)
    COOL_REQUIRES(mu_) {
  std::size_t copied = 0;
  while (copied < out.size() && HasChunkLocked() &&
         FrontChunkLocked().ready <= Now()) {
    Chunk& chunk = FrontChunkLocked();
    const std::size_t take =
        std::min(out.size() - copied, chunk.data.size() - chunk.offset);
    std::copy_n(chunk.data.begin() + static_cast<std::ptrdiff_t>(chunk.offset),
                take, out.begin() + static_cast<std::ptrdiff_t>(copied));
    chunk.offset += take;
    copied += take;
    buffered_bytes_ -= take;
    if (chunk.offset == chunk.data.size()) {
      if (spare_.size() < kMaxSpareChunks) {
        chunk.data.clear();  // keep the capacity warm for the next write
        spare_.push_back(std::move(chunk.data));
      }
      PopChunkLocked();
    }
  }
  if (copied > 0) writable_.NotifyOne();
  return copied;
}

Result<std::size_t> StreamPipe::TryRead(std::span<std::uint8_t> out) {
  if (out.empty()) return std::size_t{0};
  MutexLock lock(mu_);
  const std::size_t copied = DrainReadyLocked(out);
  if (copied > 0) return copied;
  if (HasChunkLocked()) {
    // Head chunk still in flight: re-arm the watcher for its delivery time
    // so the pre-attach backlog is never silently stranded.
    read_watch_.SignalReady(FrontChunkLocked().ready);
    return std::size_t{0};
  }
  if (closed_) return Status(UnavailableError("stream closed by peer"));
  return std::size_t{0};
}

void StreamPipe::WatchRead(const WaitSet& set, WaitSet::Token token) {
  MutexLock lock(mu_);
  read_watch_.Watch(set, token);
}

void StreamPipe::Close() {
  MutexLock lock(mu_);
  closed_ = true;
  readable_.NotifyAll();
  writable_.NotifyAll();
  read_watch_.SignalReady();
}

void AcceptQueue::Enqueue(std::unique_ptr<StreamSocket> socket) {
  MutexLock lock(mu);
  if (closed) return;  // connection refused; peer sees closed pipes
  pending.push_back(std::move(socket));
  cv.NotifyOne();
  watch.SignalReady();
}

Result<std::unique_ptr<StreamSocket>> AcceptQueue::Pop() {
  MutexLock lock(mu);
  while (!closed && pending.empty()) cv.Wait(mu);
  if (pending.empty()) return Status(UnavailableError("listener closed"));
  auto socket = std::move(pending.front());
  pending.pop_front();
  return socket;
}

Result<std::unique_ptr<StreamSocket>> AcceptQueue::PopFor(Duration timeout) {
  const TimePoint deadline = DeadlineFor(timeout);
  MutexLock lock(mu);
  while (!closed && pending.empty()) {
    if (!cv.WaitUntil(mu, deadline)) break;  // timed out
  }
  if (!closed && pending.empty()) {
    return Status(DeadlineExceededError("accept timed out"));
  }
  if (pending.empty()) return Status(UnavailableError("listener closed"));
  auto socket = std::move(pending.front());
  pending.pop_front();
  return socket;
}

Result<std::unique_ptr<StreamSocket>> AcceptQueue::TryPop() {
  MutexLock lock(mu);
  if (!pending.empty()) {
    auto socket = std::move(pending.front());
    pending.pop_front();
    return socket;
  }
  if (closed) return Status(UnavailableError("listener closed"));
  return std::unique_ptr<StreamSocket>();
}

void AcceptQueue::WatchAccept(const WaitSet& set, WaitSet::Token token) {
  MutexLock lock(mu);
  watch.Watch(set, token);
}

void AcceptQueue::Close() {
  std::deque<std::unique_ptr<StreamSocket>> orphans;
  {
    MutexLock lock(mu);
    closed = true;
    orphans.swap(pending);
    cv.NotifyAll();
    watch.SignalReady();
  }
  // Hang up connections that were queued but never accepted — their peers
  // may be blocked mid-handshake and must see kUnavailable, not wait
  // forever. Outside the lock: Close() takes the pipes' own locks.
  for (auto& socket : orphans) socket->Close();
}

void DatagramQueue::Deliver(TimePoint ready, Address from,
                            std::vector<std::uint8_t> payload) {
  MutexLock lock(mu);
  if (closed) return;
  TimedDatagram t;
  t.ready = ready;
  t.seq = next_seq++;
  t.dgram = Datagram{std::move(from), std::move(payload)};
  rx.push(std::move(t));
  cv.NotifyOne();
  watch.SignalReady(ready);
}

std::optional<Datagram> DatagramQueue::Pop() {
  MutexLock lock(mu);
  for (;;) {
    if (!rx.empty()) {
      const TimePoint ready = rx.top().ready;
      if (ready <= Now()) break;
      cv.WaitUntil(mu, ready);
      continue;
    }
    if (closed) return std::nullopt;
    cv.Wait(mu);
  }
  Datagram d = std::move(const_cast<TimedDatagram&>(rx.top()).dgram);
  rx.pop();
  return d;
}

std::optional<Datagram> DatagramQueue::PopFor(Duration timeout) {
  const TimePoint deadline = DeadlineFor(timeout);
  MutexLock lock(mu);
  for (;;) {
    if (!rx.empty() && rx.top().ready <= Now()) break;
    const TimePoint wake =
        rx.empty() ? deadline : std::min(deadline, rx.top().ready);
    if (closed && rx.empty()) return std::nullopt;
    if (Now() >= deadline) return std::nullopt;
    cv.WaitUntil(mu, wake);
    if (closed && rx.empty()) return std::nullopt;
  }
  Datagram d = std::move(const_cast<TimedDatagram&>(rx.top()).dgram);
  rx.pop();
  return d;
}

std::optional<Datagram> DatagramQueue::TryPop() {
  MutexLock lock(mu);
  if (!rx.empty()) {
    if (rx.top().ready > Now()) {
      // Head datagram still in flight: re-arm for its arrival time.
      watch.SignalReady(rx.top().ready);
      return std::nullopt;
    }
    Datagram d = std::move(const_cast<TimedDatagram&>(rx.top()).dgram);
    rx.pop();
    return d;
  }
  return std::nullopt;
}

bool DatagramQueue::depleted() const {
  MutexLock lock(mu);
  return closed && rx.empty();
}

void DatagramQueue::WatchRecv(const WaitSet& set, WaitSet::Token token) {
  MutexLock lock(mu);
  watch.Watch(set, token);
}

void DatagramQueue::Close() {
  MutexLock lock(mu);
  closed = true;
  cv.NotifyAll();
  watch.SignalReady();
}

}  // namespace internal

Status StreamSocket::RecvExact(std::span<std::uint8_t> out) {
  std::size_t got = 0;
  while (got < out.size()) {
    COOL_ASSIGN_OR_RETURN(std::size_t n, Recv(out.subspan(got)));
    got += n;
  }
  return Status::Ok();
}

Listener::~Listener() {
  Close();
  net_->Unregister(this);
}

DatagramPort::~DatagramPort() {
  Close();
  net_->UnregisterPort(this);
}

Status DatagramPort::SendTo(const Address& dst,
                            std::span<const std::uint8_t> payload) {
  // Kept separate from SendToV: this runs per fragment on the dacapo data
  // path, and the single-span case needs no gather loop.
  const LinkProperties link = net_->LinkBetween(addr_.host, dst.host);
  if (payload.size() > link.mtu) {
    return InvalidArgumentError("datagram exceeds link MTU");
  }

  TimePoint send_done;
  {
    MutexLock lock(tx_mu_);
    const TimePoint start = std::max(Now(), link_free_at_);
    send_done = start + link.SerializationDelay(payload.size());
    link_free_at_ = send_done;
  }
  PreciseSleep(send_done - Now());

  return net_->RouteDatagram(
      addr_, dst, std::vector<std::uint8_t>(payload.begin(), payload.end()),
      send_done + link.latency);
}

Status DatagramPort::SendToV(
    const Address& dst, std::span<const std::span<const std::uint8_t>> parts) {
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  const LinkProperties link = net_->LinkBetween(addr_.host, dst.host);
  if (total > link.mtu) {
    return InvalidArgumentError("datagram exceeds link MTU");
  }

  TimePoint send_done;
  {
    MutexLock lock(tx_mu_);
    const TimePoint start = std::max(Now(), link_free_at_);
    send_done = start + link.SerializationDelay(total);
    link_free_at_ = send_done;
  }
  PreciseSleep(send_done - Now());

  std::vector<std::uint8_t> payload;
  payload.reserve(total);
  for (const auto& part : parts) {
    payload.insert(payload.end(), part.begin(), part.end());
  }
  return net_->RouteDatagram(addr_, dst, std::move(payload),
                             send_done + link.latency);
}

void Network::SetLink(const std::string& host_a, const std::string& host_b,
                      LinkProperties props) {
  MutexLock lock(mu_);
  links_[std::minmax(host_a, host_b)] = props;
}

LinkProperties Network::LinkBetween(const std::string& a,
                                    const std::string& b) const {
  if (a == b) {
    // Loopback: no pacing (bandwidth 0 == infinite), no propagation.
    LinkProperties loopback;
    loopback.bandwidth_bps = 0;
    loopback.latency = Duration::zero();
    loopback.jitter = Duration::zero();
    loopback.loss_rate = 0.0;
    return loopback;
  }
  MutexLock lock(mu_);
  const auto it = links_.find(std::minmax(a, b));
  return it != links_.end() ? it->second : default_link_;
}

Result<std::unique_ptr<Listener>> Network::Listen(const Address& addr) {
  MutexLock lock(mu_);
  auto [it, inserted] = listeners_.try_emplace(addr);
  if (!inserted) {
    return Status(AlreadyExistsError("address in use: " + addr.ToString()));
  }
  it->second = std::make_shared<internal::AcceptQueue>();
  return std::make_unique<Listener>(this, addr, it->second);
}

Result<std::unique_ptr<StreamSocket>> Network::Connect(
    const std::string& local_host, const Address& remote) {
  std::shared_ptr<internal::AcceptQueue> queue;
  Address local;
  {
    MutexLock lock(mu_);
    const auto it = listeners_.find(remote);
    if (it == listeners_.end()) {
      return Status(
          UnavailableError("connection refused: " + remote.ToString()));
    }
    queue = it->second;
    local = Address{local_host, next_ephemeral_++};
  }

  const LinkProperties link = LinkBetween(local_host, remote.host);
  // TCP-style handshake: one round trip before data can flow.
  PreciseSleep(link.latency * 2);

  constexpr std::size_t kWindowBytes = 4 * 1024 * 1024;
  auto a_to_b = std::make_shared<internal::StreamPipe>(link, kWindowBytes);
  auto b_to_a = std::make_shared<internal::StreamPipe>(link, kWindowBytes);

  auto client_side =
      std::make_unique<StreamSocket>(local, remote, a_to_b, b_to_a);
  auto server_side =
      std::make_unique<StreamSocket>(remote, local, b_to_a, a_to_b);
  queue->Enqueue(std::move(server_side));
  return client_side;
}

Result<std::unique_ptr<DatagramPort>> Network::OpenPort(const Address& addr) {
  MutexLock lock(mu_);
  auto [it, inserted] = ports_.try_emplace(addr);
  if (!inserted) {
    return Status(AlreadyExistsError("port in use: " + addr.ToString()));
  }
  it->second = std::make_shared<internal::DatagramQueue>();
  return std::make_unique<DatagramPort>(this, addr, it->second);
}

void Network::Unregister(const Listener* listener) {
  MutexLock lock(mu_);
  const auto it = listeners_.find(listener->addr_);
  if (it != listeners_.end() && it->second == listener->queue_) {
    listeners_.erase(it);
  }
}

void Network::UnregisterPort(const DatagramPort* port) {
  MutexLock lock(mu_);
  const auto it = ports_.find(port->addr_);
  if (it != ports_.end() && it->second == port->queue_) ports_.erase(it);
}

Status Network::RouteDatagram(const Address& from, const Address& dst,
                              std::vector<std::uint8_t> payload,
                              TimePoint earliest_arrival) {
  const LinkProperties link = LinkBetween(from.host, dst.host);
  std::shared_ptr<internal::DatagramQueue> queue;
  TimePoint arrival = earliest_arrival;
  {
    MutexLock lock(mu_);
    if (RollLossLocked(link.loss_rate)) {
      return Status::Ok();  // silently dropped, like the real thing
    }
    arrival += RollJitterLocked(link.jitter);
    const auto it = ports_.find(dst);
    if (it == ports_.end()) {
      return Status::Ok();  // no receiver: datagram falls on the floor
    }
    queue = it->second;
  }
  queue->Deliver(arrival, from, std::move(payload));
  return Status::Ok();
}

bool Network::RollLossLocked(double p) {
  return p > 0.0 && rng_.NextBool(p);
}

Duration Network::RollJitterLocked(Duration max_jitter) {
  if (max_jitter <= Duration::zero()) return Duration::zero();
  const double frac = rng_.NextDouble();
  return std::chrono::duration_cast<Duration>(
      std::chrono::duration<double>(ToSeconds(max_jitter) * frac));
}

}  // namespace cool::sim

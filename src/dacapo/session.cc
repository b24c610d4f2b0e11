#include "dacapo/session.h"

#include <atomic>

#include "cdr/decoder.h"
#include "cdr/encoder.h"
#include "common/logging.h"
#include "dacapo/t_modules.h"

namespace cool::dacapo {

namespace {

// Bound on every connection-setup handshake wait (CONFIG, ACK, and the
// data-plane accept). A peer that stalls or vanishes mid-setup must fail
// the connect, not wedge the caller.
constexpr Duration kHandshakeTimeout = seconds(10);

// Process-wide data-port allocator (ephemeral range of the simulation).
std::uint16_t AllocDataPort() {
  static std::atomic<std::uint16_t> next{50000};
  return next.fetch_add(1);
}

struct ConfigRequest {
  ChannelOptions::Transport transport = ChannelOptions::Transport::kStream;
  ModuleGraphSpec graph;
  std::uint16_t initiator_data_port = 0;
};

std::vector<std::uint8_t> EncodeConfig(const ConfigRequest& req) {
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian);
  const auto graph_bytes = req.graph.Serialize();
  enc.Reserve(1 + 4 + 4 + graph_bytes.size() + 4 + 8);  // fields + padding
  enc.PutOctet(static_cast<std::uint8_t>(req.transport));
  enc.PutOctetSeq(graph_bytes);
  enc.PutULong(req.initiator_data_port);
  const auto view = enc.buffer().view();
  return {view.begin(), view.end()};
}

Result<ConfigRequest> DecodeConfig(std::span<const std::uint8_t> body) {
  cdr::Decoder dec(body, cdr::ByteOrder::kLittleEndian);
  ConfigRequest req;
  COOL_ASSIGN_OR_RETURN(corba::Octet transport, dec.GetOctet());
  if (transport > 1) return Status(ProtocolError("bad transport kind"));
  req.transport = static_cast<ChannelOptions::Transport>(transport);
  COOL_ASSIGN_OR_RETURN(corba::OctetSeq graph_bytes, dec.GetOctetSeq());
  COOL_ASSIGN_OR_RETURN(req.graph, ModuleGraphSpec::Deserialize(graph_bytes));
  COOL_ASSIGN_OR_RETURN(corba::ULong port, dec.GetULong());
  req.initiator_data_port = static_cast<std::uint16_t>(port);
  return req;
}

std::vector<std::uint8_t> EncodeAck(std::uint16_t data_port) {
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian);
  enc.PutULong(data_port);
  const auto view = enc.buffer().view();
  return {view.begin(), view.end()};
}

Result<std::uint16_t> DecodeAck(std::span<const std::uint8_t> body) {
  cdr::Decoder dec(body, cdr::ByteOrder::kLittleEndian);
  COOL_ASSIGN_OR_RETURN(corba::ULong port, dec.GetULong());
  return static_cast<std::uint16_t>(port);
}

std::vector<std::uint8_t> EncodeNak(const std::string& reason) {
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian);
  enc.Reserve(4 + reason.size() + 1);
  enc.PutString(reason);
  const auto view = enc.buffer().view();
  return {view.begin(), view.end()};
}

std::string DecodeNak(std::span<const std::uint8_t> body) {
  cdr::Decoder dec(body, cdr::ByteOrder::kLittleEndian);
  auto reason = dec.GetString();
  return reason.ok() ? *reason : std::string("unreadable NAK reason");
}

}  // namespace

namespace wire {

Status SendFrame(sim::StreamSocket& socket, std::uint8_t type,
                 std::span<const std::uint8_t> body) {
  const std::uint32_t len = static_cast<std::uint32_t>(body.size()) + 1;
  std::vector<std::uint8_t> frame;
  frame.reserve(4 + len);
  frame.push_back(static_cast<std::uint8_t>(len));
  frame.push_back(static_cast<std::uint8_t>(len >> 8));
  frame.push_back(static_cast<std::uint8_t>(len >> 16));
  frame.push_back(static_cast<std::uint8_t>(len >> 24));
  frame.push_back(type);
  frame.insert(frame.end(), body.begin(), body.end());
  return socket.Send(frame);
}

Result<std::pair<std::uint8_t, std::vector<std::uint8_t>>> RecvFrame(
    sim::StreamSocket& socket) {
  std::uint8_t prefix[4];
  COOL_RETURN_IF_ERROR(socket.RecvExact(prefix));
  const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                            static_cast<std::uint32_t>(prefix[1]) << 8 |
                            static_cast<std::uint32_t>(prefix[2]) << 16 |
                            static_cast<std::uint32_t>(prefix[3]) << 24;
  if (len == 0 || len > 1024 * 1024) {
    return Status(ProtocolError("bad signalling frame length"));
  }
  std::vector<std::uint8_t> data(len);
  COOL_RETURN_IF_ERROR(socket.RecvExact(data));
  const std::uint8_t type = data.front();
  data.erase(data.begin());
  return std::make_pair(type, std::move(data));
}

namespace {

Status RecvExactBy(sim::StreamSocket& socket, std::span<std::uint8_t> out,
                   TimePoint deadline) {
  std::size_t got = 0;
  while (got < out.size()) {
    const TimePoint now = Now();
    if (now >= deadline) {
      return Status(DeadlineExceededError("signalling handshake timed out"));
    }
    COOL_ASSIGN_OR_RETURN(std::size_t n,
                          socket.RecvFor(out.subspan(got), deadline - now));
    got += n;
  }
  return Status::Ok();
}

}  // namespace

Result<std::pair<std::uint8_t, std::vector<std::uint8_t>>> RecvFrameFor(
    sim::StreamSocket& socket, Duration timeout) {
  // Handshake wait (seconds-scale timeout): never legal on a reactor
  // worker or dispatch upcall — it would pin the worker for the whole
  // handshake window of one connection.
  COOL_DETECTOR_HOOK(
      deadlock::AssertBlockingAllowed("dacapo::wire::RecvFrameFor"));
  const TimePoint deadline = DeadlineFor(timeout);
  std::uint8_t prefix[4];
  COOL_RETURN_IF_ERROR(RecvExactBy(socket, prefix, deadline));
  const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                            static_cast<std::uint32_t>(prefix[1]) << 8 |
                            static_cast<std::uint32_t>(prefix[2]) << 16 |
                            static_cast<std::uint32_t>(prefix[3]) << 24;
  if (len == 0 || len > 1024 * 1024) {
    return Status(ProtocolError("bad signalling frame length"));
  }
  std::vector<std::uint8_t> data(len);
  COOL_RETURN_IF_ERROR(RecvExactBy(socket, data, deadline));
  const std::uint8_t type = data.front();
  data.erase(data.begin());
  return std::make_pair(type, std::move(data));
}

}  // namespace wire

// --- Session -----------------------------------------------------------------

Session::Session(sim::Network* net, std::string local_host,
                 std::unique_ptr<sim::StreamSocket> signalling,
                 ChannelOptions options, bool initiator,
                 ResourceManager::Reservation reservation)
    : net_(net),
      local_host_(std::move(local_host)),
      signalling_(std::move(signalling)),
      options_(std::move(options)),
      initiator_(initiator),
      reservation_(std::move(reservation)) {}

Session::~Session() { Close(); }

Result<Session::DataPlane> Session::BuildPlane(
    const ChannelOptions& options, const ModuleGraphSpec& graph,
    std::unique_ptr<sim::StreamSocket> stream_transport,
    std::unique_ptr<sim::DatagramPort> dgram_transport,
    sim::Address dgram_peer, Session* owner) {
  DataPlane plane;
  plane.graph = graph;

  std::vector<std::unique_ptr<Module>> modules;
  AppAModule* a_raw = nullptr;
  if (options.a_module_factory) {
    modules.push_back(options.a_module_factory());
  } else {
    auto a_module = std::make_unique<AppAModule>(options.delivery);
    a_raw = a_module.get();
    modules.push_back(std::move(a_module));
  }

  COOL_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<Module>> c_modules,
                        MechanismRegistry::Global().CreateChain(graph));
  for (auto& m : c_modules) modules.push_back(std::move(m));

  if (options.transport == ChannelOptions::Transport::kStream) {
    if (stream_transport == nullptr) {
      return Status(InternalError("stream plane without stream socket"));
    }
    modules.push_back(
        std::make_unique<TStreamModule>(std::move(stream_transport)));
  } else {
    if (dgram_transport == nullptr) {
      return Status(InternalError("datagram plane without port"));
    }
    modules.push_back(std::make_unique<TDatagramModule>(
        std::move(dgram_transport), std::move(dgram_peer)));
  }

  plane.chain = std::make_unique<ModuleChain>(
      "dacapo", std::move(modules),
      std::make_shared<PacketBudget>(options.packet_budget_bytes));
  plane.a_module = a_raw;
  if (owner != nullptr) {
    if (a_raw != nullptr) {
      // Receive readiness feeds the session-level watch so a reactor
      // registration survives plane swaps.
      a_raw->SetRxNotify([owner] { owner->rx_watch_.SignalReady(); });
    }
    plane.chain->SetControlSink([owner](ControlMsg msg) {
      if (msg.kind == ControlMsg::Kind::kError) {
        owner->ReportError(InternalError(msg.text));
      } else if (msg.kind == ControlMsg::Kind::kPeerClosed) {
        owner->ReportError(UnavailableError("peer closed data channel"));
      }
    });
  }
  COOL_RETURN_IF_ERROR(plane.chain->Start());
  return plane;
}

void Session::AdoptPlane(DataPlane plane) {
  {
    // Wake receivers blocked on the old plane (they hold the lock shared)
    // so the swap can take it exclusively. The old chain runs until then:
    // a send in progress finishes on it, never torn in half.
    ReaderMutexLock lock(plane_mu_);
    if (plane_.a_module != nullptr) plane_.a_module->CloseRx();
  }
  DataPlane old;
  {
    WriterMutexLock lock(plane_mu_);
    old = std::move(plane_);
    plane_ = std::move(plane);
  }
  // `old` stops and dies here, outside the lock.

  // Wake any reactor waiting on the old (now torn down) plane so it
  // re-polls against the new one.
  rx_watch_.SignalReady();
}

Status Session::Send(std::span<const std::uint8_t> payload) {
  return SendWith(payload.size(), [payload](std::span<std::uint8_t> out) {
    std::copy(payload.begin(), payload.end(), out.begin());
    return Status::Ok();
  });
}

Result<PacketPtr> Session::ReceivePacket(Duration timeout) {
  const TimePoint deadline = DeadlineFor(timeout);
  for (;;) {
    AppAModule* a = nullptr;
    Result<PacketPtr> got(Status(UnavailableError("data plane torn down")));
    {
      // The blocking receive runs UNDER the shared lock: AdoptPlane closes
      // the old queue under a shared lock (waking us with kUnavailable) and
      // needs the exclusive lock to destroy the plane, so the module cannot
      // be freed while we are still inside it.
      ReaderMutexLock lock(plane_mu_);
      a = plane_.a_module;
      if (a == nullptr) {
        return Status(
            FailedPreconditionError("session has no active data plane"));
      }
      got = a->ReceivePacket(deadline - Now());
    }
    if (got.ok() || got.status().code() != ErrorCode::kUnavailable) {
      return got;
    }
    // The plane we were blocked on was torn down. If a reconfiguration
    // swapped in a new plane, keep receiving from it; if the session is
    // closed, surface the error. AdoptPlane closes the old queue slightly
    // before swapping the plane pointer in, so allow a short grace window
    // for the swap to land. The window is NOT capped by the caller's
    // deadline: a short-quantum poller (the GIOP reply demultiplexer)
    // interrupted by a swap must come back with kDeadlineExceeded
    // (retryable) rather than kUnavailable (terminal).
    const TimePoint grace_end = Now() + milliseconds(200);
    bool swapped = false;
    while (!Ended() && Now() < grace_end) {
      AppAModule* now_active = nullptr;
      {
        ReaderMutexLock lock(plane_mu_);
        now_active = plane_.a_module;
      }
      if (now_active != a) {
        swapped = true;  // new plane adopted: retry the receive on it
        break;
      }
      PreciseSleep(milliseconds(1));
    }
    if (!swapped) return got.status();  // genuinely closed, no replacement
  }
}

Result<std::vector<std::uint8_t>> Session::Receive(Duration timeout) {
  COOL_ASSIGN_OR_RETURN(PacketPtr msg, ReceivePacket(timeout));
  const auto data = msg->Data();
  return std::vector<std::uint8_t>(data.begin(), data.end());
}

Result<PacketPtr> Session::TryReceivePacket() {
  ReaderMutexLock lock(plane_mu_);
  AppAModule* a = plane_.a_module;
  if (a == nullptr) {
    if (Ended()) return Status(UnavailableError("session closed"));
    return Status(
        FailedPreconditionError("session has no active data plane"));
  }
  Result<PacketPtr> got = a->TryReceivePacket();
  if (!got.ok() && got.status().code() == ErrorCode::kUnavailable &&
      !Ended()) {
    // Reconfiguration in flight: the old plane is closed but its
    // replacement has not landed yet. Nothing deliverable right now;
    // AdoptPlane signals the watch once the swap completes.
    return PacketPtr{};
  }
  return got;  // a null packet when nothing is queued
}

void Session::WatchRx(const sim::WaitSet& set, std::uint64_t token) {
  rx_watch_.Watch(set, token);
}

AppAModule::Stats Session::stats() const {
  ReaderMutexLock lock(plane_mu_);
  return plane_.a_module != nullptr ? plane_.a_module->snapshot()
                                    : AppAModule::Stats{};
}

void Session::ResetStats() {
  ReaderMutexLock lock(plane_mu_);
  if (plane_.a_module != nullptr) plane_.a_module->ResetStats();
}

std::vector<std::string> Session::DescribeGraph() const {
  ReaderMutexLock lock(plane_mu_);
  if (plane_.chain == nullptr) return {};
  return plane_.chain->DescribeModules();
}

ModuleGraphSpec Session::graph() const {
  ReaderMutexLock lock(plane_mu_);
  return plane_.graph;
}

Status Session::last_error() const {
  MutexLock lock(error_mu_);
  return error_;
}

void Session::ReportError(Status error) {
  MutexLock lock(error_mu_);
  if (error_.ok()) error_ = std::move(error);
}

Status Session::Reconfigure(const ModuleGraphSpec& new_graph) {
  if (!initiator_) {
    return FailedPreconditionError(
        "only the connection initiator drives reconfiguration");
  }

  // Prepare the local side of the new data plane.
  std::unique_ptr<sim::DatagramPort> new_port;
  std::uint16_t local_data_port = 0;
  if (options_.transport == ChannelOptions::Transport::kDatagram) {
    local_data_port = AllocDataPort();
    COOL_ASSIGN_OR_RETURN(
        new_port, net_->OpenPort({local_host_, local_data_port}));
  }

  ConfigRequest req;
  req.transport = options_.transport;
  req.graph = new_graph;
  req.initiator_data_port = local_data_port;
  COOL_RETURN_IF_ERROR(
      wire::SendFrame(*signalling_, wire::kReconf, EncodeConfig(req)));

  auto response = responses_.PopFor(seconds(10));
  if (!response.has_value()) {
    return responses_.closed()
               ? UnavailableError("connection closed during reconfiguration")
               : DeadlineExceededError("reconfiguration response timed out");
  }
  const std::uint8_t type = response->front();
  const std::span<const std::uint8_t> body{response->data() + 1,
                                           response->size() - 1};
  if (type == wire::kReconfNak) {
    return ResourceExhaustedError("peer rejected reconfiguration: " +
                                  DecodeNak(body));
  }
  if (type != wire::kReconfAck) {
    return ProtocolError("unexpected reconfiguration response");
  }
  COOL_ASSIGN_OR_RETURN(std::uint16_t peer_port, DecodeAck(body));

  DataPlane plane;
  if (options_.transport == ChannelOptions::Transport::kStream) {
    COOL_ASSIGN_OR_RETURN(
        std::unique_ptr<sim::StreamSocket> data_sock,
        net_->Connect(local_host_, {signalling_->remote().host, peer_port}));
    COOL_ASSIGN_OR_RETURN(
        plane, BuildPlane(options_, new_graph, std::move(data_sock), nullptr,
                          {}, this));
  } else {
    COOL_ASSIGN_OR_RETURN(
        plane, BuildPlane(options_, new_graph, nullptr, std::move(new_port),
                          {signalling_->remote().host, peer_port}, this));
  }
  AdoptPlane(std::move(plane));
  options_.graph = new_graph;
  return Status::Ok();
}

void Session::HandleReconfRequest(std::span<const std::uint8_t> body) {
  auto nak = [&](const std::string& reason) {
    (void)wire::SendFrame(*signalling_, wire::kReconfNak, EncodeNak(reason));
  };

  auto req = DecodeConfig(body);
  if (!req.ok()) {
    nak(req.status().ToString());
    return;
  }
  if (req->transport != options_.transport) {
    nak("reconfiguration cannot change the transport kind");
    return;
  }

  if (options_.transport == ChannelOptions::Transport::kStream) {
    const std::uint16_t port = AllocDataPort();
    auto data_listener = net_->Listen({local_host_, port});
    if (!data_listener.ok()) {
      nak(data_listener.status().ToString());
      return;
    }
    if (!wire::SendFrame(*signalling_, wire::kReconfAck, EncodeAck(port))
             .ok()) {
      return;
    }
    auto data_sock = (*data_listener)->AcceptFor(seconds(10));
    if (!data_sock.ok()) {
      ReportError(data_sock.status());
      return;
    }
    auto plane = BuildPlane(options_, req->graph,
                            std::move(data_sock).value(), nullptr, {}, this);
    if (!plane.ok()) {
      ReportError(plane.status());
      return;
    }
    AdoptPlane(std::move(plane).value());
  } else {
    const std::uint16_t port = AllocDataPort();
    auto dgram = net_->OpenPort({local_host_, port});
    if (!dgram.ok()) {
      nak(dgram.status().ToString());
      return;
    }
    auto plane = BuildPlane(
        options_, req->graph, nullptr, std::move(dgram).value(),
        {signalling_->remote().host, req->initiator_data_port}, this);
    if (!plane.ok()) {
      nak(plane.status().ToString());
      return;
    }
    if (!wire::SendFrame(*signalling_, wire::kReconfAck, EncodeAck(port))
             .ok()) {
      return;
    }
    AdoptPlane(std::move(plane).value());
  }
  options_.graph = req->graph;
}

void Session::SignallingLoop(std::stop_token stop) {
  // Every exit closes responses_: a waiting Reconfigure fails at once.
  while (!stop.stop_requested()) {
    auto frame = wire::RecvFrame(*signalling_);
    if (!frame.ok()) {
      if (!closed_.load()) {
        ReportError(UnavailableError("signalling channel lost"));
      }
      responses_.Close();
      return;
    }
    const auto& [type, body] = *frame;
    switch (type) {
      case wire::kReconf:
        HandleReconfRequest(body);
        break;
      case wire::kReconfAck:
      case wire::kReconfNak: {
        std::vector<std::uint8_t> tagged;
        tagged.reserve(body.size() + 1);
        tagged.push_back(type);
        tagged.insert(tagged.end(), body.begin(), body.end());
        responses_.Push(std::move(tagged));
        break;
      }
      case wire::kClose:
        // The peer closed: end the data plane as a local Close does
        // (stopping the chain closes the A module's receive queue), so
        // blocked receivers and the reactor watch see kUnavailable.
        peer_closed_.store(true);
        ReportError(UnavailableError("peer closed the connection"));
        {
          ReaderMutexLock lock(plane_mu_);
          if (plane_.chain != nullptr) plane_.chain->Stop();
        }
        rx_watch_.SignalReady();
        responses_.Close();
        return;
      default:
        COOL_LOG(kWarn, "dacapo")
            << "unknown signalling frame type " << int{type};
        break;
    }
  }
  responses_.Close();
}

void Session::Close() {
  if (closed_.exchange(true)) return;
  (void)wire::SendFrame(*signalling_, wire::kClose, {});
  signalling_->Close();  // wakes the signalling thread
  responses_.Close();
  {
    ReaderMutexLock lock(plane_mu_);
    if (plane_.chain != nullptr) plane_.chain->Stop();
  }
  rx_watch_.SignalReady();
  if (signalling_thread_.joinable() &&
      signalling_thread_.get_id() != std::this_thread::get_id()) {
    signalling_thread_.request_stop();
    signalling_thread_.join();
  }
}

// --- Connector ---------------------------------------------------------------

Result<std::unique_ptr<Session>> Connector::Connect(
    const sim::Address& remote, ChannelOptions options) {
  COOL_ASSIGN_OR_RETURN(std::unique_ptr<sim::StreamSocket> signalling,
                        net_->Connect(local_host_, remote));

  std::unique_ptr<sim::DatagramPort> dgram;
  std::uint16_t local_data_port = 0;
  if (options.transport == ChannelOptions::Transport::kDatagram) {
    local_data_port = AllocDataPort();
    COOL_ASSIGN_OR_RETURN(dgram,
                          net_->OpenPort({local_host_, local_data_port}));
  }

  ConfigRequest req;
  req.transport = options.transport;
  req.graph = options.graph;
  req.initiator_data_port = local_data_port;
  COOL_RETURN_IF_ERROR(
      wire::SendFrame(*signalling, wire::kConfig, EncodeConfig(req)));

  COOL_ASSIGN_OR_RETURN(auto frame,
                        wire::RecvFrameFor(*signalling, kHandshakeTimeout));
  const auto& [type, body] = frame;
  if (type == wire::kConfigNak) {
    return Status(ResourceExhaustedError("peer rejected configuration: " +
                                         DecodeNak(body)));
  }
  if (type != wire::kConfigAck) {
    return Status(ProtocolError("unexpected connection setup response"));
  }
  COOL_ASSIGN_OR_RETURN(std::uint16_t peer_port, DecodeAck(body));

  auto session = std::unique_ptr<Session>(
      new Session(net_, local_host_, std::move(signalling), options,
                  /*initiator=*/true, ResourceManager::Reservation{}));

  Session::DataPlane plane;
  if (options.transport == ChannelOptions::Transport::kStream) {
    COOL_ASSIGN_OR_RETURN(
        std::unique_ptr<sim::StreamSocket> data_sock,
        net_->Connect(local_host_, {remote.host, peer_port}));
    COOL_ASSIGN_OR_RETURN(
        plane, Session::BuildPlane(options, options.graph,
                                   std::move(data_sock), nullptr, {},
                                   session.get()));
  } else {
    COOL_ASSIGN_OR_RETURN(
        plane, Session::BuildPlane(options, options.graph, nullptr,
                                   std::move(dgram),
                                   {remote.host, peer_port}, session.get()));
  }
  session->AdoptPlane(std::move(plane));
  session->signalling_thread_ = Thread(
      [s = session.get()](std::stop_token st) { s->SignallingLoop(st); });
  return session;
}

// --- Acceptor ------------------------------------------------------------------

Acceptor::Acceptor(sim::Network* net, sim::Address listen_addr,
                   ResourceManager* resources)
    : net_(net), addr_(std::move(listen_addr)), resources_(resources) {}

Status Acceptor::Listen() {
  COOL_ASSIGN_OR_RETURN(listener_, net_->Listen(addr_));
  return Status::Ok();
}

void Acceptor::Close() {
  if (listener_ != nullptr) listener_->Close();
}

Result<std::unique_ptr<Session>> Acceptor::Accept(
    AppAModule::DeliveryMode delivery) {
  if (listener_ == nullptr) {
    return Status(FailedPreconditionError("acceptor is not listening"));
  }
  COOL_ASSIGN_OR_RETURN(std::unique_ptr<sim::StreamSocket> signalling,
                        listener_->Accept());
  return Establish(std::move(signalling), delivery);
}

Result<std::unique_ptr<Session>> Acceptor::TryAccept(
    AppAModule::DeliveryMode delivery) {
  if (listener_ == nullptr) {
    return Status(FailedPreconditionError("acceptor is not listening"));
  }
  COOL_ASSIGN_OR_RETURN(std::unique_ptr<sim::StreamSocket> signalling,
                        listener_->TryAccept());
  if (signalling == nullptr) return std::unique_ptr<Session>();
  // A connection is pending: the setup handshake runs inline. It is short
  // and bounded — the initiator sends CONFIG immediately after connecting.
  return Establish(std::move(signalling), delivery);
}

bool Acceptor::WatchAccept(const sim::WaitSet& set, std::uint64_t token) {
  if (listener_ == nullptr) return false;
  listener_->WatchAccept(set, token);
  return true;
}

Result<std::unique_ptr<Session>> Acceptor::Establish(
    std::unique_ptr<sim::StreamSocket> signalling,
    AppAModule::DeliveryMode delivery) {
  COOL_ASSIGN_OR_RETURN(auto frame,
                        wire::RecvFrameFor(*signalling, kHandshakeTimeout));
  const auto& [type, body] = frame;
  if (type != wire::kConfig) {
    return Status(ProtocolError("expected CONFIG as first frame"));
  }
  auto req = DecodeConfig(body);
  if (!req.ok()) {
    (void)wire::SendFrame(*signalling, wire::kConfigNak,
                          EncodeNak(req.status().ToString()));
    return req.status();
  }

  ChannelOptions options;
  options.transport = req->transport;
  options.graph = req->graph;
  options.delivery = delivery;
  options.a_module_factory = a_module_factory_;

  auto nak_and_fail = [&](Status reason) -> Result<std::unique_ptr<Session>> {
    (void)wire::SendFrame(*signalling, wire::kConfigNak,
                          EncodeNak(reason.ToString()));
    return reason;
  };

  // Validate every requested mechanism exists before committing resources.
  for (const MechanismSpec& m : req->graph.chain) {
    if (MechanismRegistry::Global().Properties(m.name) == nullptr) {
      return nak_and_fail(NotFoundError("unknown mechanism: " + m.name));
    }
  }
  if (admission_) {
    if (Status s = admission_(req->graph); !s.ok()) return nak_and_fail(s);
  }
  ResourceManager::Reservation reservation;
  if (resources_ != nullptr) {
    auto admitted = resources_->Admit(qos::ProtocolRequirements{},
                                      options.packet_budget_bytes);
    if (!admitted.ok()) return nak_and_fail(admitted.status());
    reservation = std::move(admitted).value();
  }

  auto session = std::unique_ptr<Session>(
      new Session(net_, addr_.host, std::move(signalling), options,
                  /*initiator=*/false, std::move(reservation)));

  Session::DataPlane plane;
  if (options.transport == ChannelOptions::Transport::kStream) {
    const std::uint16_t port = AllocDataPort();
    COOL_ASSIGN_OR_RETURN(std::unique_ptr<sim::Listener> data_listener,
                          net_->Listen({addr_.host, port}));
    COOL_RETURN_IF_ERROR(
        wire::SendFrame(*session->signalling_, wire::kConfigAck,
                        EncodeAck(port)));
    COOL_ASSIGN_OR_RETURN(std::unique_ptr<sim::StreamSocket> data_sock,
                          data_listener->AcceptFor(kHandshakeTimeout));
    COOL_ASSIGN_OR_RETURN(
        plane, Session::BuildPlane(options, options.graph,
                                   std::move(data_sock), nullptr, {},
                                   session.get()));
  } else {
    const std::uint16_t port = AllocDataPort();
    COOL_ASSIGN_OR_RETURN(std::unique_ptr<sim::DatagramPort> dgram,
                          net_->OpenPort({addr_.host, port}));
    COOL_ASSIGN_OR_RETURN(
        plane,
        Session::BuildPlane(options, options.graph, nullptr,
                            std::move(dgram),
                            {session->signalling_->remote().host,
                             req->initiator_data_port},
                            session.get()));
    COOL_RETURN_IF_ERROR(wire::SendFrame(*session->signalling_,
                                         wire::kConfigAck, EncodeAck(port)));
  }
  session->AdoptPlane(std::move(plane));
  session->signalling_thread_ = Thread(
      [s = session.get()](std::stop_token st) { s->SignallingLoop(st); });
  return session;
}

}  // namespace cool::dacapo

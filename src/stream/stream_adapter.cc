#include "stream/stream_adapter.h"

#include <atomic>

#include "common/logging.h"

namespace cool::stream {

namespace {

std::uint16_t AllocFlowPort() {
  static std::atomic<std::uint16_t> next{52000};
  return next.fetch_add(1);
}

// The channel options both ends derive from a flow spec.
dacapo::ChannelOptions FlowChannelOptions(const FlowSpec& spec,
                                          dacapo::ModuleGraphSpec graph) {
  dacapo::ChannelOptions options;
  // Media flows ride the raw datagram service: loss and reordering are
  // visible unless the configured graph handles them — that is the point.
  options.transport = dacapo::ChannelOptions::Transport::kDatagram;
  options.graph = std::move(graph);
  options.packet_capacity =
      std::max<std::size_t>(spec.frame_bytes + 64, 4 * 1024);
  options.packet_budget_bytes = 256 * options.packet_capacity;
  return options;
}

}  // namespace

StreamService::StreamService(sim::Network* net, std::string host,
                             dacapo::NetworkEstimate estimate,
                             qos::Capability flow_capability,
                             dacapo::ResourceManager* resources)
    : net_(net),
      host_(std::move(host)),
      estimate_(estimate),
      flow_capability_(std::move(flow_capability)),
      resources_(resources) {}

StreamService::~StreamService() {
  std::map<corba::ULong, std::shared_ptr<Flow>> flows;
  {
    MutexLock lock(mu_);
    flows.swap(flows_);
  }
  for (auto& [id, flow] : flows) {
    flow->acceptor->Close();
    if (flow->accept_thread.joinable()) flow->accept_thread.join();
    MutexLock lock(flow->mu);
    if (flow->sink != nullptr) flow->sink->Stop();
  }
}

std::size_t StreamService::active_flows() const {
  MutexLock lock(mu_);
  return flows_.size();
}

Result<FlowStats> StreamService::StatsFor(corba::ULong flow_id) const {
  std::shared_ptr<Flow> flow;
  {
    MutexLock lock(mu_);
    const auto it = flows_.find(flow_id);
    if (it == flows_.end()) {
      return Status(NotFoundError("unknown flow id"));
    }
    flow = it->second;
  }
  MutexLock lock(flow->mu);
  if (flow->sink == nullptr) {
    return Status(UnavailableError("flow data session not yet connected"));
  }
  return flow->sink->stats();
}

orb::DispatchOutcome StreamService::Dispatch(std::string_view operation,
                                             cdr::Decoder& args,
                                             cdr::Encoder& out) {
  if (operation == "open_flow") return OpenFlow(args, out);
  if (operation == "flow_stats") return FlowStatsOp(args, out);
  if (operation == "close_flow") return CloseFlow(args, out);
  return orb::DispatchOutcome::Fail(
      UnsupportedError("unknown operation on StreamService"));
}

orb::DispatchOutcome StreamService::OpenFlow(cdr::Decoder& args,
                                             cdr::Encoder& out) {
  auto spec = FlowSpec::Decode(args);
  if (!spec.ok()) {
    return orb::DispatchOutcome::Fail(
        InvalidArgumentError(spec.status().message()));
  }

  // Bilateral negotiation of the *flow* QoS (per-flow QoS specification,
  // the extension the paper's §7 sketches). The nominal media rate is
  // negotiated as a throughput demand even when the caller did not spell
  // it out.
  qos::QoSSpec negotiable = spec->qos;
  if (negotiable.Find(qos::ParamType::kThroughputKbps) == nullptr) {
    negotiable.Set(
        qos::RequireThroughputKbps(spec->NominalKbps(),
                                   static_cast<corba::Long>(
                                       spec->NominalKbps())));
  }
  const qos::NegotiationResult negotiated =
      qos::Negotiate(negotiable, flow_capability_);
  if (!negotiated.accepted) {
    return orb::DispatchOutcome::Fail(ResourceExhaustedError(
        "flow QoS not supported: " + negotiated.RejectionReason()));
  }

  dacapo::ResourceManager::Reservation reservation;
  if (resources_ != nullptr) {
    qos::ProtocolRequirements req;
    req.min_throughput_kbps = spec->NominalKbps();
    auto admitted = resources_->Admit(req, spec->frame_bytes * 256);
    if (!admitted.ok()) {
      return orb::DispatchOutcome::Fail(admitted.status());
    }
    reservation = std::move(admitted).value();
  }

  const std::uint16_t port = AllocFlowPort();
  auto flow = std::make_shared<Flow>();
  flow->spec = *spec;
  flow->reservation = std::move(reservation);
  flow->acceptor = std::make_unique<dacapo::Acceptor>(
      net_, sim::Address{host_, port});
  if (Status s = flow->acceptor->Listen(); !s.ok()) {
    return orb::DispatchOutcome::Fail(s);
  }
  // One accept per flow; the sink starts as soon as the peer connects.
  flow->accept_thread = Thread([flow](std::stop_token) {
    auto session =
        flow->acceptor->Accept(dacapo::AppAModule::DeliveryMode::kQueue);
    if (!session.ok()) return;  // service shut down before the peer came
    auto sink = std::make_unique<StreamSink>(std::move(session).value());
    if (!sink->Start().ok()) return;
    MutexLock lock(flow->mu);
    flow->sink = std::move(sink);
  });

  corba::ULong flow_id = 0;
  {
    MutexLock lock(mu_);
    flow_id = next_flow_id_++;
    flows_[flow_id] = flow;
  }
  COOL_LOG(kInfo, "stream") << "flow " << flow_id << " opened at " << host_
                            << ":" << port << " ("
                            << spec->frame_rate_hz << " fps x "
                            << spec->frame_bytes << " B)";

  out.PutULong(flow_id);
  out.PutString(host_);
  out.PutULong(port);
  return orb::DispatchOutcome::Ok();
}

orb::DispatchOutcome StreamService::FlowStatsOp(cdr::Decoder& args,
                                                cdr::Encoder& out) {
  auto flow_id = args.GetULong();
  if (!flow_id.ok()) {
    return orb::DispatchOutcome::Fail(InvalidArgumentError("bad flow id"));
  }
  auto stats = StatsFor(*flow_id);
  if (!stats.ok()) return orb::DispatchOutcome::Fail(stats.status());
  stats->EncodeStats(out);
  return orb::DispatchOutcome::Ok();
}

orb::DispatchOutcome StreamService::CloseFlow(cdr::Decoder& args,
                                              cdr::Encoder& out) {
  (void)out;
  auto flow_id = args.GetULong();
  if (!flow_id.ok()) {
    return orb::DispatchOutcome::Fail(InvalidArgumentError("bad flow id"));
  }
  std::shared_ptr<Flow> flow;
  {
    MutexLock lock(mu_);
    const auto it = flows_.find(*flow_id);
    if (it == flows_.end()) {
      return orb::DispatchOutcome::Fail(NotFoundError("unknown flow id"));
    }
    flow = it->second;
    flows_.erase(it);
  }
  flow->acceptor->Close();
  if (flow->accept_thread.joinable()) flow->accept_thread.join();
  {
    MutexLock lock(flow->mu);
    if (flow->sink != nullptr) flow->sink->Stop();
  }
  return orb::DispatchOutcome::Ok();
}

// --- FlowConnection -------------------------------------------------------------

Result<std::unique_ptr<FlowConnection>> FlowConnection::Open(
    orb::Stub* control, sim::Network* net, const std::string& local_host,
    const FlowSpec& spec, const dacapo::NetworkEstimate& estimate) {
  // 1. Control-plane negotiation through the ORB.
  cdr::Encoder args = control->MakeArgsEncoder();
  spec.Encode(args);
  COOL_ASSIGN_OR_RETURN(orb::Stub::ReplyData reply,
                        control->Invoke("open_flow", args.buffer().view()));
  cdr::Decoder dec = reply.MakeDecoder();
  COOL_ASSIGN_OR_RETURN(corba::ULong flow_id, dec.GetULong());
  COOL_ASSIGN_OR_RETURN(corba::String host, dec.GetString());
  COOL_ASSIGN_OR_RETURN(corba::ULong port, dec.GetULong());

  // 2. Data-plane configuration: the flow QoS maps to a Da CaPo graph over
  //    the raw datagram service.
  dacapo::NetworkEstimate est = estimate;
  est.transport_reliable = false;
  est.typical_packet_bytes = spec.frame_bytes;
  const qos::ProtocolRequirements req =
      qos::MapToProtocolRequirements(spec.qos);
  dacapo::ConfigurationManager config;
  COOL_ASSIGN_OR_RETURN(dacapo::ConfiguredGraph graph,
                        config.Configure(req, est));

  dacapo::Connector connector(net, local_host);
  COOL_ASSIGN_OR_RETURN(
      std::unique_ptr<dacapo::Session> session,
      connector.Connect({host, static_cast<std::uint16_t>(port)},
                        FlowChannelOptions(spec, graph.spec)));

  return std::unique_ptr<FlowConnection>(
      new FlowConnection(control, flow_id, std::move(session), spec));
}

FlowConnection::~FlowConnection() { (void)Close(); }

Result<FlowStats> FlowConnection::RemoteStats() {
  cdr::Encoder args = control_->MakeArgsEncoder();
  args.PutULong(flow_id_);
  COOL_ASSIGN_OR_RETURN(orb::Stub::ReplyData reply,
                        control_->Invoke("flow_stats", args.buffer().view()));
  cdr::Decoder dec = reply.MakeDecoder();
  return FlowStats::DecodeStats(dec);
}

Status FlowConnection::Close() {
  if (closed_) return Status::Ok();
  closed_ = true;
  source_->Stop();
  cdr::Encoder args = control_->MakeArgsEncoder();
  args.PutULong(flow_id_);
  auto reply = control_->Invoke("close_flow", args.buffer().view());
  session_->Close();
  return reply.ok() ? Status::Ok() : reply.status();
}

}  // namespace cool::stream

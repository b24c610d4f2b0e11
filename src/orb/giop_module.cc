#include "orb/giop_module.h"

#include "common/logging.h"

namespace cool::orb {

void GiopServerAModule::SendMessage(const ByteBuffer& msg,
                                    dacapo::ModulePort& port) {
  auto pkt = port.Make(msg.view());
  if (!pkt.ok()) {
    COOL_LOG(kWarn, "orb") << "giop_a: reply dropped, " << pkt.status();
    return;
  }
  port.ForwardDown(std::move(pkt).value());
}

void GiopServerAModule::SendReply(giop::Version version,
                                  const giop::ReplyHeader& reply,
                                  std::span<const corba::Octet> body,
                                  dacapo::ModulePort& port) {
  const ByteBuffer hdr_body = giop::BuildReplyHeaderBody(reply, options_.order);
  const auto head = giop::HeaderBytes(
      version, giop::MsgType::kReply,
      static_cast<corba::ULong>(hdr_body.size() + body.size()),
      options_.order);
  auto pkt = port.Allocate(head.size() + hdr_body.size() + body.size());
  if (!pkt.ok()) {
    COOL_LOG(kWarn, "orb") << "giop_a: reply dropped, " << pkt.status();
    return;
  }
  dacapo::PacketPtr p = std::move(pkt).value();
  // A fresh packet is empty, so PushTrailer appends each piece in place.
  if (!p->PushTrailer(head).ok() || !p->PushTrailer(hdr_body.view()).ok() ||
      !p->PushTrailer(body).ok()) {
    COOL_LOG(kWarn, "orb") << "giop_a: reply exceeds packet capacity";
    return;
  }
  port.ForwardDown(std::move(p));
}

void GiopServerAModule::HandleRequest(const giop::ParsedMessage& msg,
                                      dacapo::ModulePort& port) {
  cdr::Decoder dec = msg.MakeBodyDecoder();
  auto header = giop::ParseRequestHeader(dec, msg.header.version);
  if (!header.ok()) {
    SendMessage(giop::BuildMessageError(giop::kGiop10, options_.order), port);
    return;
  }
  const giop::GiopServer::DispatchResult result =
      adapter_->Dispatch(*header, dec, options_.order);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  if (!header->response_expected) return;

  giop::ReplyHeader reply;
  reply.request_id = header->request_id;
  reply.reply_status = result.status;
  SendReply(msg.header.version, reply, result.body.view(), port);
}

void GiopServerAModule::HandleData(dacapo::Direction dir,
                                   dacapo::PacketPtr pkt,
                                   dacapo::ModulePort& port) {
  if (dir == dacapo::Direction::kDown) {
    // Server role: nothing above us injects requests; pass through so the
    // module also composes as a transparent element if ever mid-chain.
    port.ForwardDown(std::move(pkt));
    return;
  }

  auto parsed = giop::ParseMessage(pkt->Data());
  pkt.reset();  // free the packet before building the reply
  if (!parsed.ok()) {
    SendMessage(giop::BuildMessageError(giop::kGiop10, options_.order), port);
    return;
  }
  const giop::MessageHeader& h = parsed->header;

  const bool version_ok =
      h.version == giop::kGiop10 ||
      (h.version == giop::kGiopQos && options_.accept_qos_extension);
  if (!version_ok) {
    SendMessage(giop::BuildMessageError(giop::kGiop10, options_.order), port);
    return;
  }

  switch (h.message_type) {
    case giop::MsgType::kRequest:
      HandleRequest(*parsed, port);
      return;
    case giop::MsgType::kLocateRequest: {
      cdr::Decoder dec = parsed->MakeBodyDecoder();
      auto locate = giop::ParseLocateRequestHeader(dec);
      if (!locate.ok()) return;
      giop::LocateReplyHeader reply;
      reply.request_id = locate->request_id;
      reply.locate_status = adapter_->Exists(locate->object_key)
                                ? giop::LocateStatus::kObjectHere
                                : giop::LocateStatus::kUnknownObject;
      SendMessage(giop::BuildLocateReply(h.version, reply, options_.order),
                  port);
      return;
    }
    case giop::MsgType::kCancelRequest:
    case giop::MsgType::kCloseConnection:
      return;  // serialized module dispatch: nothing in flight to cancel
    case giop::MsgType::kMessageError:
      COOL_LOG(kWarn, "orb") << "giop_a: peer reported MessageError";
      return;
    default:
      SendMessage(giop::BuildMessageError(giop::kGiop10, options_.order),
                  port);
      return;
  }
}

// --- SessionComChannel -----------------------------------------------------------

SessionComChannel::~SessionComChannel() {
  Close();
  DrainAsync();
}

// --- Alt2Server --------------------------------------------------------------------

Alt2Server::Alt2Server(sim::Network* net, sim::Address listen,
                       ObjectAdapter* adapter)
    : Alt2Server(net, std::move(listen), adapter,
                 GiopServerAModule::Options()) {}

Alt2Server::Alt2Server(sim::Network* net, sim::Address listen,
                       ObjectAdapter* adapter,
                       GiopServerAModule::Options options)
    : acceptor_(net, std::move(listen)), adapter_(adapter),
      options_(options) {
  acceptor_.SetAModuleFactory([this]() -> std::unique_ptr<dacapo::Module> {
    return std::make_unique<GiopServerAModule>(adapter_, options_);
  });
}

Alt2Server::~Alt2Server() { Shutdown(); }

Status Alt2Server::Start() {
  COOL_RETURN_IF_ERROR(acceptor_.Listen());
  accept_thread_ = Thread([this](std::stop_token st) { AcceptLoop(st); });
  return Status::Ok();
}

void Alt2Server::Shutdown() {
  if (shutdown_.exchange(true)) return;
  acceptor_.Close();
  if (accept_thread_.joinable()) {
    accept_thread_.request_stop();
    accept_thread_.join();
  }
  MutexLock lock(mu_);
  for (auto& session : sessions_) session->Close();
}

void Alt2Server::AcceptLoop(std::stop_token stop) {
  while (!stop.stop_requested()) {
    auto session = acceptor_.Accept();
    if (!session.ok()) return;  // acceptor closed
    MutexLock lock(mu_);
    if (shutdown_.load()) return;
    ++connections_;
    sessions_.push_back(std::move(session).value());
  }
}

std::uint64_t Alt2Server::connections() const {
  MutexLock lock(mu_);
  return connections_;
}

}  // namespace cool::orb

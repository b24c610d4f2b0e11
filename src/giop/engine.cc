#include "giop/engine.h"

#include "common/logging.h"

namespace cool::giop {

// --- GiopClient ---------------------------------------------------------------

cdr::Decoder GiopClient::Reply::MakeResultsDecoder() const {
  cdr::Decoder dec = message.MakeBodyDecoder();
  // Re-parse past the reply header to the 8-aligned results; the offsets
  // were validated when the Reply was first parsed.
  (void)ParseReplyHeader(dec);
  return dec;
}

GiopClient::~GiopClient() {
  std::uint64_t reg = 0;
  {
    MutexLock lock(mu_);
    reg = rx_reg_;
  }
  // Barrier: no demux callback is running once Remove returns. Outside
  // mu_, which the callback takes.
  reactor_.Remove(reg);
}

ByteBuffer GiopClient::BuildRequestHead(
    const corba::OctetSeq& object_key, const std::string& operation,
    const std::vector<qos::QoSParameter>& qos_params, std::size_t args_size,
    bool response_expected, corba::ULong request_id) const {
  RequestHeaderView header;
  header.request_id = request_id;
  header.response_expected = response_expected;
  header.object_key = object_key;
  header.operation = operation;
  header.requesting_principal = options_.principal;
  header.qos_params = &qos_params;

  // Version switch (paper §4.2): the version field tells the receiver
  // whether standard GIOP or the QoS extension is used.
  const Version version = (options_.use_qos_extension && !qos_params.empty())
                              ? kGiopQos
                              : kGiop10;
  return BuildRequestPreamble(version, header, args_size, options_.order,
                              BufferPool::Default().Lease());
}

Status GiopClient::SendSerialized(const ByteBuffer& msg) {
  MutexLock lock(send_mu_);
  return channel_->SendMessage(msg.view());
}

Status GiopClient::SendSerializedV(const ByteBuffer& head,
                                   std::span<const corba::Octet> tail) {
  MutexLock lock(send_mu_);
  if (tail.empty()) return channel_->SendMessage(head.view());
  const std::span<const std::uint8_t> parts[] = {head.view(), tail};
  return channel_->SendMessageV(parts);
}

Status GiopClient::EnsureRegisteredLocked() {
  if (rx_reg_ != 0) return Status::Ok();
  Result<std::uint64_t> reg = reactor_.Add(
      [this](const sim::WaitSet& set, std::uint64_t token) {
        return channel_->RegisterRx(set, token);
      },
      [this] { DrainReactor(); });
  if (!reg.ok()) {
    broken_ = reg.status();
    return broken_;
  }
  rx_reg_ = *reg;
  return Status::Ok();
}

Result<ParsedMessage> GiopClient::AwaitSlot(corba::ULong id,
                                            const std::shared_ptr<Slot>& slot,
                                            Duration timeout,
                                            bool abandon_on_timeout) {
  const TimePoint deadline = DeadlineFor(timeout);
  MutexLock lock(mu_);
  while (!slot->done) {
    if (!slot->cv.WaitUntil(mu_, deadline)) break;
  }
  if (!slot->done) {
    if (abandon_on_timeout) {
      // The Reply may still arrive; remember the id so the demux
      // discards it instead of flagging an unknown-id protocol error.
      pending_.erase(id);
      AbandonLocked(id);
    }
    return Status(DeadlineExceededError("no Reply for request " +
                                        std::to_string(id)));
  }
  pending_.erase(id);
  return std::move(slot->outcome);
}

void GiopClient::DrainReactor() {
  // Drain contract: one readiness signal may cover several messages; keep
  // pulling until nothing is pending. On a terminal condition the
  // registration stays put (removal is the destructor's barrier); further
  // signals just re-fail an already-broken connection.
  for (;;) {
    Result<std::optional<ByteBuffer>> raw = channel_->TryReceiveMessage();
    if (!raw.ok()) {
      FailPending(raw.status(), /*terminal=*/true);
      return;
    }
    if (!raw->has_value()) return;  // drained
    if (HandleFrame(*std::move(*raw))) return;
  }
}

bool GiopClient::HandleFrame(ByteBuffer raw) {
  // Adopt the receive buffer: the ParsedMessage owns the frame, so the
  // reply body is never copied on its way up to the stub.
  auto parsed = ParseMessage(std::move(raw));
  if (!parsed.ok()) {
    FailPending(parsed.status(), /*terminal=*/false);
    return false;
  }
  switch (parsed->header.message_type) {
    case MsgType::kReply: {
      cdr::Decoder dec = parsed->MakeBodyDecoder();
      auto reply = ParseReplyHeader(dec);
      if (!reply.ok()) {
        FailPending(reply.status(), /*terminal=*/false);
        return false;
      }
      CompleteRequest(reply->request_id, *std::move(parsed));
      return false;
    }
    case MsgType::kLocateReply: {
      cdr::Decoder dec = parsed->MakeBodyDecoder();
      auto reply = ParseLocateReplyHeader(dec);
      if (!reply.ok()) {
        FailPending(reply.status(), /*terminal=*/false);
        return false;
      }
      CompleteRequest(reply->request_id, *std::move(parsed));
      return false;
    }
    case MsgType::kMessageError:
      // MessageError carries no request id, so every in-flight request
      // is failed — the connection itself survives, per GIOP.
      FailPending(Status(ProtocolError(
                      "peer answered MessageError (GIOP version not "
                      "accepted?)")),
                  /*terminal=*/false);
      return false;
    case MsgType::kCloseConnection:
      FailPending(Status(UnavailableError("peer closed the GIOP connection")),
                  /*terminal=*/true);
      return true;
    default:
      FailPending(Status(ProtocolError(
                      "unexpected GIOP message: " +
                      std::string(MsgTypeName(parsed->header.message_type)))),
                  /*terminal=*/false);
      return false;
  }
}

void GiopClient::CompleteRequest(corba::ULong request_id, ParsedMessage msg) {
  MutexLock lock(mu_);
  auto it = pending_.find(request_id);
  if (it == pending_.end()) {
    if (abandoned_ != nullptr && abandoned_->ids.erase(request_id) != 0) {
      return;  // late reply for a cancelled/timed-out request: discard
    }
    COOL_LOG(kWarn, "giop")
        << "Reply for unknown request id " << request_id << ", discarded";
    return;
  }
  Slot& slot = *it->second;
  if (slot.done) return;  // already failed/cancelled; keep that outcome
  slot.outcome = std::move(msg);
  slot.done = true;
  slot.cv.NotifyOne();
}

void GiopClient::FailPending(const Status& status, bool terminal) {
  MutexLock lock(mu_);
  for (auto& [id, slot] : pending_) {
    if (slot->done) continue;
    slot->outcome = status;
    slot->done = true;
    slot->cv.NotifyOne();
  }
  if (terminal) {
    broken_ = status;
    // Nothing further can arrive on this connection: release the
    // abandoned-id memory (satellite: evict on connection close).
    abandoned_.reset();
  }
}

void GiopClient::AbandonLocked(corba::ULong id) {
  if (abandoned_ == nullptr) abandoned_ = std::make_unique<AbandonMemory>();
  if (!abandoned_->ids.insert(id).second) return;
  abandoned_->fifo.push_back(id);
  while (abandoned_->fifo.size() > options_.abandoned_cap) {
    // FIFO cap; ids consumed out of band leave stale fifo entries, whose
    // eviction is then a no-op erase.
    abandoned_->ids.erase(abandoned_->fifo.front());
    abandoned_->fifo.pop_front();
  }
}

Result<GiopClient::Reply> GiopClient::MakeReply(ParsedMessage parsed) {
  Reply reply;
  cdr::Decoder dec = parsed.MakeBodyDecoder();
  COOL_ASSIGN_OR_RETURN(reply.header, ParseReplyHeader(dec));
  reply.message = std::move(parsed);
  reply.results_offset_ = dec.offset();
  return reply;
}

Result<GiopClient::Reply> GiopClient::Invoke(
    const corba::OctetSeq& object_key, const std::string& operation,
    std::span<const corba::Octet> args_cdr,
    const std::vector<qos::QoSParameter>& qos_params, Duration timeout) {
  COOL_ASSIGN_OR_RETURN(
      PendingCall call, StartCall(args_cdr, [&](corba::ULong id) {
        return BuildRequestHead(object_key, operation, qos_params,
                                args_cdr.size(), true, id);
      }));
  COOL_ASSIGN_OR_RETURN(
      ParsedMessage msg,
      AwaitSlot(call.id, call.slot, timeout, /*abandon_on_timeout=*/true));
  if (msg.header.message_type != MsgType::kReply) {
    return Status(ProtocolError("expected Reply for request " +
                                std::to_string(call.id)));
  }
  return MakeReply(std::move(msg));
}

Status GiopClient::InvokeOneway(
    const corba::OctetSeq& object_key, const std::string& operation,
    std::span<const corba::Octet> args_cdr,
    const std::vector<qos::QoSParameter>& qos_params) {
  corba::ULong id = 0;
  {
    MutexLock lock(mu_);
    if (!broken_.ok()) return broken_;
    id = next_request_id_++;
  }
  const ByteBuffer head = BuildRequestHead(object_key, operation, qos_params,
                                           args_cdr.size(), false, id);
  return SendSerializedV(head, args_cdr);
}

Result<corba::ULong> GiopClient::InvokeDeferred(
    const corba::OctetSeq& object_key, const std::string& operation,
    std::span<const corba::Octet> args_cdr,
    const std::vector<qos::QoSParameter>& qos_params) {
  COOL_ASSIGN_OR_RETURN(
      PendingCall call, StartCall(args_cdr, [&](corba::ULong id) {
        return BuildRequestHead(object_key, operation, qos_params,
                                args_cdr.size(), true, id);
      }));
  return call.id;
}

Result<GiopClient::Reply> GiopClient::PollReply(corba::ULong request_id,
                                                Duration timeout) {
  std::shared_ptr<Slot> slot;
  {
    MutexLock lock(mu_);
    auto it = pending_.find(request_id);
    if (it == pending_.end()) {
      if (abandoned_ != nullptr && abandoned_->ids.erase(request_id) != 0) {
        return Status(CancelledError("request was cancelled"));
      }
      if (!broken_.ok()) return broken_;
      return Status(FailedPreconditionError("no deferred request with id " +
                                            std::to_string(request_id)));
    }
    slot = it->second;
  }
  COOL_ASSIGN_OR_RETURN(
      ParsedMessage msg,
      AwaitSlot(request_id, slot, timeout, /*abandon_on_timeout=*/false));
  if (msg.header.message_type != MsgType::kReply) {
    return Status(ProtocolError("expected Reply for request " +
                                std::to_string(request_id)));
  }
  return MakeReply(std::move(msg));
}

Status GiopClient::Cancel(corba::ULong request_id) {
  {
    MutexLock lock(mu_);
    auto it = pending_.find(request_id);
    if (it != pending_.end()) {
      Slot& slot = *it->second;
      if (!slot.done) {
        slot.outcome = Status(CancelledError("request was cancelled"));
        slot.done = true;
        slot.cv.NotifyOne();
      }
      pending_.erase(it);
    }
    AbandonLocked(request_id);
  }
  CancelRequestHeader header{request_id};
  return SendSerialized(BuildCancelRequest(kGiop10, header, options_.order));
}

Result<LocateStatus> GiopClient::Locate(const corba::OctetSeq& object_key,
                                        Duration timeout) {
  COOL_ASSIGN_OR_RETURN(
      PendingCall call, StartCall({}, [&](corba::ULong id) {
        LocateRequestHeader header;
        header.request_id = id;
        header.object_key = object_key;
        return BuildLocateRequest(kGiop10, header, options_.order);
      }));
  COOL_ASSIGN_OR_RETURN(
      ParsedMessage msg,
      AwaitSlot(call.id, call.slot, timeout, /*abandon_on_timeout=*/true));
  if (msg.header.message_type != MsgType::kLocateReply) {
    return Status(ProtocolError("expected LocateReply"));
  }
  cdr::Decoder dec = msg.MakeBodyDecoder();
  COOL_ASSIGN_OR_RETURN(LocateReplyHeader reply, ParseLocateReplyHeader(dec));
  return reply.locate_status;
}

Status GiopClient::SendClose() {
  return SendSerialized(BuildCloseConnection(kGiop10, options_.order));
}

// --- GiopServer ---------------------------------------------------------------

GiopServer::~GiopServer() { Close(); }

Status GiopServer::SendSerialized(const ByteBuffer& msg) {
  MutexLock lock(send_mu_);
  return channel_->SendMessage(msg.view());
}

Status GiopServer::SendSerializedV(const ByteBuffer& head,
                                   std::span<const corba::Octet> tail) {
  MutexLock lock(send_mu_);
  if (tail.empty()) return channel_->SendMessage(head.view());
  const std::span<const std::uint8_t> parts[] = {head.view(), tail};
  return channel_->SendMessageV(parts);
}

Status GiopServer::DispatchAndReply(const DispatchJob& job) {
  cdr::Decoder dec = job.ArgsDecoder();
  DispatchResult result = dispatcher_(job.header, dec);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  if (!job.header.response_expected) return Status::Ok();

  ReplyHeader reply;
  reply.request_id = job.header.request_id;
  reply.reply_status = result.status;
  // The Reply answers in the Request's GIOP version (a 9.9 conversation
  // stays 9.9; Reply's format is identical in both). Preamble in a pooled
  // buffer, result body sent as the gathered tail — no frame concatenation.
  const ByteBuffer head =
      BuildReplyPreamble(job.msg.header.version, reply, result.body.size(),
                         options_->order, BufferPool::Default().Lease());
  return SendSerializedV(head, result.body.view());
}

void GiopServer::RunDispatchJob(const DispatchJob& job) {
  {
    // Last-chance cancel: a CancelRequest that raced the dequeue.
    MutexLock lock(pool_mu_);
    if (TakeCancelledLocked(job.header.request_id)) {
      requests_cancelled_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  const Status sent = DispatchAndReply(job);
  if (!sent.ok()) {
    COOL_LOG(kWarn, "giop")
        << "Reply send failed for request " << job.header.request_id << ": "
        << sent;
  }
}

void GiopServer::DropDispatchJob(const DispatchJob& job) {
  requests_shed_.fetch_add(1, std::memory_order_relaxed);
  if (!job.header.response_expected) return;
  // CORBA TRANSIENT, COMPLETED_NO — the standard system-exception body
  // (repo id, minor, completion status; see orb/exceptions.h), encoded
  // here directly because the GIOP layer sits below the ORB's exception
  // types. Minor code 1 = dispatch queue shed by AQM.
  cdr::Encoder body = MakeBodyEncoder();
  body.PutString("IDL:omg.org/CORBA/TRANSIENT:1.0");
  body.PutULong(1);
  body.PutULong(1);  // CompletionStatus::kNo
  ReplyHeader reply;
  reply.request_id = job.header.request_id;
  reply.reply_status = ReplyStatus::kSystemException;
  const ByteBuffer encoded = std::move(body).TakeBuffer();
  const ByteBuffer head =
      BuildReplyPreamble(job.msg.header.version, reply, encoded.size(),
                         options_->order, BufferPool::Default().Lease());
  const Status sent = SendSerializedV(head, encoded.view());
  if (!sent.ok()) {
    COOL_LOG(kWarn, "giop")
        << "Shed-reply send failed for request " << job.header.request_id
        << ": " << sent;
  }
}

bool GiopServer::TakeCancelledLocked(corba::ULong id) {
  if (cancel_memory_ == nullptr) return false;
  return cancel_memory_->ids.erase(id) != 0;
}

void GiopServer::RememberCancelLocked(corba::ULong id) {
  if (cancel_memory_ == nullptr) {
    // Lazy: most connections never see a CancelRequest, so they never pay
    // for the set/fifo pair (a default-constructed deque alone costs ~576
    // heap bytes on libstdc++ — real money across 100k connections).
    cancel_memory_ = std::make_unique<CancelMemory>();
  }
  if (!cancel_memory_->ids.insert(id).second) return;
  cancel_memory_->fifo.push_back(id);
  while (cancel_memory_->fifo.size() > options_->cancelled_cap) {
    // FIFO cap; consumed ids leave stale fifo entries (no-op erase).
    cancel_memory_->ids.erase(cancel_memory_->fifo.front());
    cancel_memory_->fifo.pop_front();
  }
}

void GiopServer::Close() {
  {
    MutexLock lock(pool_mu_);
    if (pool_closed_) return;
    pool_closed_ = true;
  }
  // Barrier out our queued and in-flight jobs; the pool itself lives on
  // for other connections.
  pool_.DetachRunner(runner_id_);
  MutexLock lock(pool_mu_);
  cancel_memory_.reset();
}

Status GiopServer::HandleRequest(ParsedMessage msg) {
  cdr::Decoder dec = msg.MakeBodyDecoder();
  auto header = ParseRequestHeader(dec, msg.header.version);
  if (!header.ok()) {
    (void)SendSerialized(BuildMessageError(kGiop10, options_->order));
    return header.status();
  }

  {
    MutexLock lock(pool_mu_);
    if (TakeCancelledLocked(header->request_id)) {
      // Cancelled before we started processing: GIOP allows dropping it.
      requests_cancelled_.fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    }
  }

  DispatchJob job;
  job.args_offset = dec.offset();
  job.header = *std::move(header);
  job.msg = std::move(msg);

  // The request's QoS parameters become a full scheduling profile (band +
  // weight + rate), the classify stage of the hierarchical scheduler.
  // Submit runs outside pool_mu_ — it blocks for backpressure.
  const qos::SchedProfile profile =
      qos::ClassifyForScheduling(job.header.qos_params);
  if (!pool_.Submit(this, runner_id_, profile, std::move(job))) {
    return Status(CancelledError("server dispatch pool is closed"));
  }
  return Status::Ok();
}

Status GiopServer::HandleCancel(corba::ULong request_id) {
  // Kill a queued-but-unstarted dispatch outright. CancelQueued takes the
  // pool's own lock, so it must run outside pool_mu_ (kEngine ranks above
  // kDispatchPool only in the Submit direction; keeping them unnested
  // sidesteps the question).
  if (pool_.CancelQueued(runner_id_, request_id)) {
    requests_cancelled_.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }
  // Not queued (not yet arrived, or already dispatched): remember the id
  // so a late Request is dropped. An upcall already running is not
  // interrupted, per GIOP's best-effort cancel semantics.
  MutexLock lock(pool_mu_);
  RememberCancelLocked(request_id);
  return Status::Ok();
}

Status GiopServer::HandleFrame(ByteBuffer raw) {
  // Adopt the receive buffer: the args decoder reads straight out of the
  // transport's frame, which rides inside the job without copies.
  auto parsed = ParseMessage(std::move(raw));
  if (!parsed.ok()) {
    (void)SendSerialized(BuildMessageError(kGiop10, options_->order));
    return parsed.status();
  }
  const MessageHeader& h = parsed->header;

  // Version gate (paper §4.2, backwards compatibility): an unmodified GIOP
  // implementation rejects the 9.9 extension with MessageError.
  const bool version_ok =
      h.version == kGiop10 ||
      (h.version == kGiopQos && options_->accept_qos_extension);
  if (!version_ok) {
    COOL_LOG(kInfo, "giop") << "rejecting GIOP version "
                            << h.version.ToString();
    (void)SendSerialized(BuildMessageError(kGiop10, options_->order));
    return Status::Ok();  // connection survives, per GIOP
  }

  switch (h.message_type) {
    case MsgType::kRequest:
      return HandleRequest(*std::move(parsed));
    case MsgType::kCancelRequest: {
      cdr::Decoder dec = parsed->MakeBodyDecoder();
      COOL_ASSIGN_OR_RETURN(CancelRequestHeader cancel,
                            ParseCancelRequestHeader(dec));
      return HandleCancel(cancel.request_id);
    }
    case MsgType::kLocateRequest: {
      cdr::Decoder dec = parsed->MakeBodyDecoder();
      COOL_ASSIGN_OR_RETURN(LocateRequestHeader locate,
                            ParseLocateRequestHeader(dec));
      LocateReplyHeader reply;
      reply.request_id = locate.request_id;
      const bool here = locator_ ? locator_(locate.object_key) : false;
      reply.locate_status =
          here ? LocateStatus::kObjectHere : LocateStatus::kUnknownObject;
      return SendSerialized(
          BuildLocateReply(h.version, reply, options_->order));
    }
    case MsgType::kCloseConnection:
      return CancelledError("peer closed connection");
    case MsgType::kMessageError:
      return ProtocolError("peer reported MessageError");
    case MsgType::kReply:
    case MsgType::kLocateReply:
      (void)SendSerialized(BuildMessageError(kGiop10, options_->order));
      return ProtocolError("client-role message received by server");
  }
  return InternalError("unreachable GIOP message type");
}

Result<std::size_t> GiopServer::Drain() {
  std::size_t handled = 0;
  for (;;) {
    Result<std::optional<ByteBuffer>> raw = channel_->TryReceiveMessage();
    if (!raw.ok()) return raw.status();  // closed, or transport failure
    if (!raw->has_value()) return handled;  // drained; wait for readiness
    ++handled;
    const Status s = HandleFrame(*std::move(*raw));
    if (s.ok()) continue;
    if (s.code() != ErrorCode::kProtocolError) return s;
    // Protocol damage is reported but the connection soldiers on, as GIOP
    // prescribes after MessageError.
    COOL_LOG(kWarn, "giop") << "protocol error on connection: " << s;
  }
}

}  // namespace cool::giop

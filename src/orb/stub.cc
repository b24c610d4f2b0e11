#include "orb/stub.h"

#include "common/logging.h"
#include "orb/exceptions.h"

namespace cool::orb {

Stub::Stub(ORB* orb, ObjectRef ref) : orb_(orb), ref_(std::move(ref)) {}

Stub::~Stub() {
  (void)Unbind();
  std::vector<Thread> threads;
  {
    MutexLock lock(async_mu_);
    threads.swap(async_threads_);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
}

Status Stub::EnsureBoundLocked() {
  if (colocated_ || binding_ != nullptr) return Status::Ok();

  // Colocation fast path (paper §2: the Object Adapter "is designed to
  // optimize colocated scenarios").
  if (orb_->IsLocal(ref_)) {
    colocated_ = true;
    return Status::Ok();
  }

  // Implicit binding: set up during the first method invocation. The QoS
  // spec in force participates in transport selection/configuration —
  // "request connection with QoS" in the paper's Fig. 4.
  auto binding = std::make_shared<Binding>();
  COOL_ASSIGN_OR_RETURN(binding->channel, orb_->OpenChannel(ref_, qos_));
  giop::GiopClient::Options opts;
  opts.use_qos_extension = orb_->options().enable_qos_extension;
  opts.order = order_;
  opts.principal = orb_->options().principal;
  binding->client = std::make_unique<giop::GiopClient>(
      binding->channel.get(), orb_->reactor(), opts);
  binding_ = std::move(binding);
  return Status::Ok();
}

Result<Stub::CallContext> Stub::PrepareCall() {
  MutexLock lock(mu_);
  COOL_RETURN_IF_ERROR(EnsureBoundLocked());
  CallContext ctx;
  ctx.binding = binding_;  // null when colocated
  ctx.qos = qos_.parameters();
  return ctx;
}

Status Stub::SetQoSParameter(const qos::QoSSpec& spec) {
  MutexLock lock(mu_);
  explicit_binding_ = true;

  if (colocated_) {
    // No transport involved; bilateral negotiation against the servant
    // still happens per invocation.
    qos_ = spec;
    return Status::Ok();
  }

  if (binding_ != nullptr) {
    // Existing binding: unilateral transport re-negotiation (paper §4.3).
    // TCP/IPC answer kUnsupported here for non-empty specs.
    COOL_RETURN_IF_ERROR(binding_->channel->SetQoSParameter(spec));
  } else if (orb_->IsLocal(ref_)) {
    // Colocated target: no transport to negotiate with; the bilateral
    // negotiation against the servant happens per invocation.
    colocated_ = true;
  } else if (!spec.empty()) {
    // Not bound yet: pre-screen the spec against the transport this
    // reference names so impossible requests fail at specification time,
    // not at the first invocation.
    if (ref_.protocol != Protocol::kDacapo) {
      return UnsupportedError(
          std::string(ProtocolName(ref_.protocol)) +
          " transport does not implement setQoSParameter");
    }
  }
  qos_ = spec;
  return Status::Ok();
}

qos::QoSSpec Stub::qos() const {
  MutexLock lock(mu_);
  return qos_;
}

bool Stub::explicit_binding() const {
  MutexLock lock(mu_);
  return explicit_binding_;
}

std::string_view Stub::bound_protocol() const {
  MutexLock lock(mu_);
  if (colocated_) return "colocated";
  if (binding_ != nullptr) return binding_->channel->protocol();
  return "";
}

Status Stub::Unbind() {
  std::shared_ptr<Binding> binding;
  {
    MutexLock lock(mu_);
    binding = std::move(binding_);
    colocated_ = false;
  }
  if (binding != nullptr) {
    // Invocations still holding the snapshot keep the Binding alive; the
    // channel close fails them with kUnavailable. The demux registration
    // is removed when the last snapshot releases the Binding.
    (void)binding->client->SendClose();
    binding->channel->Close();
  }
  return Status::Ok();
}

Result<Stub::ReplyData> Stub::FromGiopReply(giop::GiopClient::Reply reply) const {
  switch (reply.header.reply_status) {
    case giop::ReplyStatus::kNoException:
    case giop::ReplyStatus::kUserException: {
      ReplyData data;
      data.status = reply.header.reply_status;
      data.order = reply.message.header.byte_order;
      data.results_offset = reply.ResultsMessageOffset();
      // Adopt the whole reply frame: the results decoder aliases it in
      // place, so the body is never copied between wire and caller.
      data.payload = std::move(reply.message.buffer);
      return data;
    }
    case giop::ReplyStatus::kSystemException: {
      cdr::Decoder dec = reply.MakeResultsDecoder();
      COOL_ASSIGN_OR_RETURN(SystemException ex, SystemException::Decode(dec));
      return ex.ToStatus();
    }
    case giop::ReplyStatus::kLocationForward:
      return Status(UnsupportedError("LOCATION_FORWARD not supported"));
  }
  return Status(InternalError("bad reply status"));
}

Result<Stub::ReplyData> Stub::InvokeColocated(
    const std::string& operation, std::span<const corba::Octet> args,
    const std::vector<qos::QoSParameter>& qos_params) {
  cdr::Decoder arg_dec(args, order_, 0);
  giop::GiopServer::DispatchResult result =
      orb_->adapter().DispatchLocal(ref_.object_key, operation, qos_params,
                                    arg_dec, order_);
  switch (result.status) {
    case giop::ReplyStatus::kNoException:
    case giop::ReplyStatus::kUserException: {
      ReplyData data;
      data.status = result.status;
      data.order = order_;
      data.payload = std::move(result.body);
      data.results_offset = 0;
      return data;
    }
    case giop::ReplyStatus::kSystemException: {
      cdr::Decoder dec(result.body.view(), order_, 0);
      COOL_ASSIGN_OR_RETURN(SystemException ex, SystemException::Decode(dec));
      return ex.ToStatus();
    }
    case giop::ReplyStatus::kLocationForward:
      return Status(UnsupportedError("LOCATION_FORWARD not supported"));
  }
  return Status(InternalError("bad dispatch status"));
}

Result<Stub::ReplyData> Stub::Invoke(const std::string& operation,
                                     std::span<const corba::Octet> args,
                                     Duration timeout) {
  COOL_ASSIGN_OR_RETURN(CallContext ctx, PrepareCall());
  if (ctx.binding == nullptr) return InvokeColocated(operation, args, ctx.qos);
  COOL_ASSIGN_OR_RETURN(
      giop::GiopClient::Reply reply,
      ctx.binding->client->Invoke(ref_.object_key, operation, args, ctx.qos,
                                  timeout));
  return FromGiopReply(std::move(reply));
}

Status Stub::InvokeOneway(const std::string& operation,
                          std::span<const corba::Octet> args) {
  COOL_ASSIGN_OR_RETURN(CallContext ctx, PrepareCall());
  if (ctx.binding == nullptr) {
    auto discarded = InvokeColocated(operation, args, ctx.qos);
    return Status::Ok();  // one-way: outcome intentionally dropped
  }
  return ctx.binding->client->InvokeOneway(ref_.object_key, operation, args,
                                           ctx.qos);
}

Result<corba::ULong> Stub::InvokeDeferred(
    const std::string& operation, std::span<const corba::Octet> args) {
  COOL_ASSIGN_OR_RETURN(CallContext ctx, PrepareCall());
  if (ctx.binding == nullptr) {
    return Status(
        UnsupportedError("deferred invocation on a colocated object"));
  }
  return ctx.binding->client->InvokeDeferred(ref_.object_key, operation,
                                             args, ctx.qos);
}

Result<Stub::ReplyData> Stub::PollReply(corba::ULong request_id,
                                        Duration timeout) {
  std::shared_ptr<Binding> binding;
  {
    MutexLock lock(mu_);
    binding = binding_;
  }
  if (binding == nullptr) {
    return Status(FailedPreconditionError("no binding"));
  }
  COOL_ASSIGN_OR_RETURN(giop::GiopClient::Reply reply,
                        binding->client->PollReply(request_id, timeout));
  return FromGiopReply(std::move(reply));
}

Status Stub::CancelRequest(corba::ULong request_id) {
  std::shared_ptr<Binding> binding;
  {
    MutexLock lock(mu_);
    binding = binding_;
  }
  if (binding == nullptr) {
    return FailedPreconditionError("no binding");
  }
  return binding->client->Cancel(request_id);
}

Status Stub::InvokeAsync(const std::string& operation,
                         std::span<const corba::Octet> args,
                         AsyncCallback callback) {
  // Capture everything by value; the worker re-enters Invoke, which
  // snapshots the binding itself. Concurrent async invocations pipeline
  // over the one channel instead of queueing on the stub lock. This is the
  // single surviving copy on the async path — the caller's args span dies
  // when this call returns, but the worker thread outlives it.
  std::vector<corba::Octet> args_copy(args.begin(), args.end());
  MutexLock lock(async_mu_);
  async_threads_.emplace_back(
      [this, operation, args_copy = std::move(args_copy),
       cb = std::move(callback)](std::stop_token) {
        cb(Invoke(operation, args_copy));
      });
  return Status::Ok();
}

Result<bool> Stub::LocateObject(Duration timeout) {
  COOL_ASSIGN_OR_RETURN(CallContext ctx, PrepareCall());
  if (ctx.binding == nullptr) return true;  // colocated
  COOL_ASSIGN_OR_RETURN(giop::LocateStatus status,
                        ctx.binding->client->Locate(ref_.object_key, timeout));
  return status == giop::LocateStatus::kObjectHere;
}

}  // namespace cool::orb

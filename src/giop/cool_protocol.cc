#include "giop/cool_protocol.h"

namespace cool::coolproto {

namespace {

constexpr std::uint8_t kMagic[4] = {'C', 'O', 'O', 'L'};

void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  Result<std::uint8_t> U8() {
    if (pos_ + 1 > data_.size()) return Underrun();
    return data_[pos_++];
  }
  Result<std::uint16_t> U16() {
    if (pos_ + 2 > data_.size()) return Underrun();
    const std::uint16_t v = static_cast<std::uint16_t>(
        data_[pos_] | static_cast<std::uint16_t>(data_[pos_ + 1]) << 8);
    pos_ += 2;
    return v;
  }
  Result<std::uint32_t> U32() {
    if (pos_ + 4 > data_.size()) return Underrun();
    const std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) |
                            static_cast<std::uint32_t>(data_[pos_ + 1]) << 8 |
                            static_cast<std::uint32_t>(data_[pos_ + 2]) << 16 |
                            static_cast<std::uint32_t>(data_[pos_ + 3]) << 24;
    pos_ += 4;
    return v;
  }
  Result<std::span<const std::uint8_t>> Bytes(std::size_t n) {
    if (pos_ + n > data_.size()) {
      return Status(ProtocolError("COOL message underrun"));
    }
    auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }
  std::span<const std::uint8_t> Rest() {
    auto view = data_.subspan(pos_);
    pos_ = data_.size();
    return view;
  }

 private:
  Status Underrun() const { return ProtocolError("COOL message underrun"); }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

ByteBuffer Finish(MsgType type, std::uint32_t id,
                  std::vector<std::uint8_t> body) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + body.size());
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
  out.push_back(static_cast<std::uint8_t>(type));
  PutU32(out, id);
  PutU32(out, static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return ByteBuffer(std::move(out));
}

Result<std::pair<MsgType, std::uint32_t>> ParseHeader(
    std::span<const std::uint8_t> message) {
  if (message.size() < kHeaderSize) {
    return Status(ProtocolError("COOL header truncated"));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    if (message[i] != kMagic[i]) {
      return Status(ProtocolError("bad COOL magic"));
    }
  }
  if (message[4] > static_cast<std::uint8_t>(MsgType::kError)) {
    return Status(ProtocolError("unknown COOL message type"));
  }
  Reader r(message.subspan(5));
  COOL_ASSIGN_OR_RETURN(std::uint32_t id, r.U32());
  COOL_ASSIGN_OR_RETURN(std::uint32_t body_size, r.U32());
  if (message.size() != kHeaderSize + body_size) {
    return Status(ProtocolError("COOL body_size mismatch"));
  }
  return std::make_pair(static_cast<MsgType>(message[4]), id);
}

}  // namespace

ByteBuffer EncodeRequest(const Request& request) {
  std::vector<std::uint8_t> body;
  body.push_back(request.response_expected ? 1 : 0);
  PutU16(body, static_cast<std::uint16_t>(request.object_key.size()));
  body.insert(body.end(), request.object_key.begin(),
              request.object_key.end());
  PutU16(body, static_cast<std::uint16_t>(request.operation.size()));
  body.insert(body.end(), request.operation.begin(),
              request.operation.end());
  PutU16(body, static_cast<std::uint16_t>(request.qos_params.size()));
  for (const qos::QoSParameter& p : request.qos_params) {
    PutU32(body, p.param_type);
    PutU32(body, p.request_value);
    PutU32(body, static_cast<std::uint32_t>(p.max_value));
    PutU32(body, static_cast<std::uint32_t>(p.min_value));
  }
  body.insert(body.end(), request.args.begin(), request.args.end());
  return Finish(MsgType::kRequest, request.id, std::move(body));
}

ByteBuffer EncodeReply(const Reply& reply) {
  std::vector<std::uint8_t> body;
  body.push_back(static_cast<std::uint8_t>(reply.status));
  body.insert(body.end(), reply.results.begin(), reply.results.end());
  return Finish(MsgType::kReply, reply.id, std::move(body));
}

ByteBuffer EncodeError() { return Finish(MsgType::kError, 0, {}); }

Result<MsgType> PeekType(std::span<const std::uint8_t> message) {
  COOL_ASSIGN_OR_RETURN(auto header, ParseHeader(message));
  return header.first;
}

Result<Request> DecodeRequest(std::span<const std::uint8_t> message) {
  COOL_ASSIGN_OR_RETURN(auto header, ParseHeader(message));
  if (header.first != MsgType::kRequest) {
    return Status(ProtocolError("not a COOL Request"));
  }
  Request request;
  request.id = header.second;
  Reader r(message.subspan(kHeaderSize));
  COOL_ASSIGN_OR_RETURN(std::uint8_t flags, r.U8());
  request.response_expected = (flags & 1) != 0;
  COOL_ASSIGN_OR_RETURN(std::uint16_t key_len, r.U16());
  COOL_ASSIGN_OR_RETURN(auto key, r.Bytes(key_len));
  request.object_key.assign(key.begin(), key.end());
  COOL_ASSIGN_OR_RETURN(std::uint16_t op_len, r.U16());
  COOL_ASSIGN_OR_RETURN(auto op, r.Bytes(op_len));
  request.operation.assign(op.begin(), op.end());
  COOL_ASSIGN_OR_RETURN(std::uint16_t qos_count, r.U16());
  for (std::uint16_t i = 0; i < qos_count; ++i) {
    qos::QoSParameter p;
    COOL_ASSIGN_OR_RETURN(p.param_type, r.U32());
    COOL_ASSIGN_OR_RETURN(p.request_value, r.U32());
    COOL_ASSIGN_OR_RETURN(std::uint32_t max_v, r.U32());
    COOL_ASSIGN_OR_RETURN(std::uint32_t min_v, r.U32());
    p.max_value = static_cast<corba::Long>(max_v);
    p.min_value = static_cast<corba::Long>(min_v);
    request.qos_params.push_back(p);
  }
  const auto args = r.Rest();
  request.args.assign(args.begin(), args.end());
  return request;
}

Result<Reply> DecodeReply(std::span<const std::uint8_t> message) {
  COOL_ASSIGN_OR_RETURN(auto header, ParseHeader(message));
  if (header.first != MsgType::kReply) {
    return Status(ProtocolError("not a COOL Reply"));
  }
  Reply reply;
  reply.id = header.second;
  Reader r(message.subspan(kHeaderSize));
  COOL_ASSIGN_OR_RETURN(std::uint8_t status, r.U8());
  if (status > static_cast<std::uint8_t>(
                   giop::ReplyStatus::kSystemException)) {
    return Status(ProtocolError("bad COOL reply status"));
  }
  reply.status = static_cast<giop::ReplyStatus>(status);
  const auto results = r.Rest();
  reply.results.assign(results.begin(), results.end());
  return reply;
}

// --- engines -------------------------------------------------------------------

Result<Reply> CoolClient::Invoke(
    const corba::OctetSeq& object_key, const std::string& operation,
    std::span<const std::uint8_t> args,
    const std::vector<qos::QoSParameter>& qos_params, Duration timeout) {
  Request request;
  {
    // mu_ only covers the id allocation — never the exchange itself
    // (scripts/check_invariants.py rule 8). ComChannel::Call serializes
    // the send/receive pair at the transport layer.
    MutexLock lock(mu_);
    request.id = next_id_++;
  }
  request.object_key = object_key;
  request.operation = operation;
  request.qos_params = qos_params;
  request.args.assign(args.begin(), args.end());

  COOL_ASSIGN_OR_RETURN(ByteBuffer raw,
                        channel_->Call(EncodeRequest(request).view(), timeout));
  COOL_ASSIGN_OR_RETURN(MsgType type, PeekType(raw.view()));
  if (type == MsgType::kError) {
    return Status(ProtocolError("peer answered COOL Error"));
  }
  COOL_ASSIGN_OR_RETURN(Reply reply, DecodeReply(raw.view()));
  if (reply.id != request.id) {
    return Status(ProtocolError("COOL reply id mismatch"));
  }
  return reply;
}

Status CoolClient::InvokeOneway(
    const corba::OctetSeq& object_key, const std::string& operation,
    std::span<const std::uint8_t> args,
    const std::vector<qos::QoSParameter>& qos_params) {
  MutexLock lock(mu_);
  Request request;
  request.id = next_id_++;
  request.response_expected = false;
  request.object_key = object_key;
  request.operation = operation;
  request.qos_params = qos_params;
  request.args.assign(args.begin(), args.end());
  return channel_->SendMessage(EncodeRequest(request).view());
}

Status CoolServer::HandleFrame(const ByteBuffer& raw) {
  auto request = DecodeRequest(raw.view());
  if (!request.ok()) {
    (void)channel_->SendMessage(EncodeError().view());
    return request.status();
  }
  cdr::Decoder args(request->args, cdr::ByteOrder::kLittleEndian, 0);
  const giop::GiopServer::DispatchResult result =
      dispatcher_(*request, args);
  ++requests_served_;
  if (!request->response_expected) return Status::Ok();

  Reply reply;
  reply.id = request->id;
  reply.status = result.status;
  const auto view = result.body.view();
  reply.results.assign(view.begin(), view.end());
  return channel_->SendMessage(EncodeReply(reply).view());
}

}  // namespace cool::coolproto

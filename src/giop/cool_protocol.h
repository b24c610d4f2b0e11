// The proprietary COOL message protocol (paper Fig. 1: "COOL supports GIOP
// and the proprietary COOL protocol in the message layer", both behind the
// generic message protocol layer).
//
// The original protocol is unspecified in public documents; we implement a
// plausible compact RPC framing that showcases why an ORB vendor kept one
// next to GIOP: no service-context list, no principal, no CDR alignment
// padding (packed little-endian), single-octet message types — smaller and
// cheaper to parse than GIOP for intra-COOL traffic. QoS parameters are
// carried natively (no version split needed: the field is always present,
// possibly empty).
//
// Wire format (all integers packed little-endian):
//   header : magic "COOL" | type u8 | id u32 | body_size u32
//   request: flags u8 (bit0 = response expected)
//            key_len u16, key bytes
//            op_len u16, op bytes
//            qos_count u16, qos_count x QoSParameter (4 x u32)
//            args bytes (to end of body)
//   reply  : status u8 (0 ok, 1 user exception, 2 system exception)
//            results bytes
//   error  : empty body
#pragma once

#include <functional>

#include "giop/engine.h"  // ReplyStatus + DispatchResult reused
#include "transport/com_channel.h"

namespace cool::coolproto {

enum class MsgType : std::uint8_t {
  kRequest = 0,
  kReply = 1,
  kError = 2,
};

inline constexpr std::size_t kHeaderSize = 13;

struct Request {
  std::uint32_t id = 0;
  bool response_expected = true;
  corba::OctetSeq object_key;
  std::string operation;
  std::vector<qos::QoSParameter> qos_params;
  std::vector<std::uint8_t> args;
};

struct Reply {
  std::uint32_t id = 0;
  giop::ReplyStatus status = giop::ReplyStatus::kNoException;
  std::vector<std::uint8_t> results;
};

// Wire codecs (exposed for tests).
ByteBuffer EncodeRequest(const Request& request);
ByteBuffer EncodeReply(const Reply& reply);
ByteBuffer EncodeError();
Result<Request> DecodeRequest(std::span<const std::uint8_t> message);
Result<Reply> DecodeReply(std::span<const std::uint8_t> message);
Result<MsgType> PeekType(std::span<const std::uint8_t> message);

// Client engine with the same call shape as giop::GiopClient.
class CoolClient {
 public:
  explicit CoolClient(transport::ComChannel* channel) : channel_(channel) {}

  Result<Reply> Invoke(const corba::OctetSeq& object_key,
                       const std::string& operation,
                       std::span<const std::uint8_t> args,
                       const std::vector<qos::QoSParameter>& qos_params,
                       Duration timeout = seconds(10));
  Status InvokeOneway(const corba::OctetSeq& object_key,
                      const std::string& operation,
                      std::span<const std::uint8_t> args,
                      const std::vector<qos::QoSParameter>& qos_params);

 private:
  transport::ComChannel* channel_;
  Mutex mu_{LockRank::kEngine, "giop::CoolClient::mu_"};
  std::uint32_t next_id_ COOL_GUARDED_BY(mu_) = 1;
};

// Server engine; plugs into the same dispatcher type as the GIOP server so
// the object adapter serves both protocols of the message layer.
class CoolServer {
 public:
  // Reuses giop::GiopServer::DispatchResult / conventions: decoder is
  // positioned at the argument bytes (packed; base offset 0).
  using Dispatcher = std::function<giop::GiopServer::DispatchResult(
      const Request&, cdr::Decoder&)>;

  CoolServer(transport::ComChannel* channel, Dispatcher dispatcher)
      : channel_(channel), dispatcher_(std::move(dispatcher)) {}

  // Handles one received message: decodes the Request, runs the upcall
  // inline and sends the Reply. Malformed input is answered with an Error
  // message and reported as the decode status. Receiving is the caller's
  // job, as for giop::GiopServer::HandleFrame.
  Status HandleFrame(const ByteBuffer& raw);

  std::uint64_t requests_served() const noexcept { return requests_served_; }

 private:
  transport::ComChannel* channel_;
  Dispatcher dispatcher_;
  std::uint64_t requests_served_ = 0;
};

}  // namespace cool::coolproto

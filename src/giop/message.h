// GIOP message layer (CORBA 2.0 §12 + the paper's §4.2 extension).
//
// "OMG's standard GIOP uses seven messages to send method invocations from
// client to object implementation, return the response back to the client,
// cancel requests, handle errors, etc."
//
// The QoS extension follows the paper exactly:
//  * the GIOP header `version` field distinguishes standard GIOP
//    (major 1, minor 0) from the QoS extension (major 9, minor 9);
//  * the Request message is the only message modified — it gains a final
//    `sequence<QoSParameter> qos_params` field;
//  * a server that cannot satisfy the requested QoS answers with the
//    standard CORBA exception mechanism (SYSTEM_EXCEPTION Reply).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "cdr/decoder.h"
#include "cdr/encoder.h"
#include "cdr/types.h"
#include "common/byte_buffer.h"
#include "common/status.h"
#include "qos/qos.h"

namespace cool::giop {

struct Version {
  corba::Octet major = 1;
  corba::Octet minor = 0;
  friend bool operator==(const Version&, const Version&) = default;
  std::string ToString() const {
    return std::to_string(major) + "." + std::to_string(minor);
  }
};

// Standard GIOP and the paper's QoS extension ("major version number 9,
// minor version number 9").
inline constexpr Version kGiop10{1, 0};
inline constexpr Version kGiopQos{9, 9};

enum class MsgType : corba::Octet {
  kRequest = 0,
  kReply = 1,
  kCancelRequest = 2,
  kLocateRequest = 3,
  kLocateReply = 4,
  kCloseConnection = 5,
  kMessageError = 6,
};

std::string_view MsgTypeName(MsgType t) noexcept;

inline constexpr std::size_t kHeaderSize = 12;
inline constexpr std::array<corba::Octet, 4> kMagic{'G', 'I', 'O', 'P'};

struct MessageHeader {
  Version version;
  cdr::ByteOrder byte_order = cdr::NativeOrder();
  MsgType message_type = MsgType::kRequest;
  corba::ULong message_size = 0;  // octets following the 12-octet header
};

struct ServiceContext {
  corba::ULong context_id = 0;
  corba::OctetSeq context_data;
  friend bool operator==(const ServiceContext&,
                         const ServiceContext&) = default;
};
using ServiceContextList = std::vector<ServiceContext>;

// The only GIOP message modified by the extension (paper Fig. 2-ii):
// qos_params is appended and is present on the wire iff the message header
// carries version 9.9.
struct RequestHeader {
  ServiceContextList service_context;
  corba::ULong request_id = 0;
  corba::Boolean response_expected = true;
  corba::OctetSeq object_key;
  corba::String operation;
  corba::OctetSeq requesting_principal;
  std::vector<qos::QoSParameter> qos_params;  // extension field

  friend bool operator==(const RequestHeader&,
                         const RequestHeader&) = default;
};

enum class ReplyStatus : corba::ULong {
  kNoException = 0,
  kUserException = 1,
  kSystemException = 2,
  kLocationForward = 3,
};

struct ReplyHeader {
  ServiceContextList service_context;
  corba::ULong request_id = 0;
  ReplyStatus reply_status = ReplyStatus::kNoException;
  friend bool operator==(const ReplyHeader&, const ReplyHeader&) = default;
};

struct CancelRequestHeader {
  corba::ULong request_id = 0;
};

struct LocateRequestHeader {
  corba::ULong request_id = 0;
  corba::OctetSeq object_key;
};

enum class LocateStatus : corba::ULong {
  kUnknownObject = 0,
  kObjectHere = 1,
  kObjectForward = 2,
};

struct LocateReplyHeader {
  corba::ULong request_id = 0;
  LocateStatus locate_status = LocateStatus::kUnknownObject;
};

// --- encoding ---------------------------------------------------------------
// Build functions return the complete wire message (header + CDR body) with
// message_size back-patched.

ByteBuffer BuildRequest(Version version, const RequestHeader& header,
                        std::span<const corba::Octet> args_cdr,
                        cdr::ByteOrder order = cdr::NativeOrder());
ByteBuffer BuildReply(Version version, const ReplyHeader& header,
                      std::span<const corba::Octet> body_cdr,
                      cdr::ByteOrder order = cdr::NativeOrder());
ByteBuffer BuildCancelRequest(Version version,
                              const CancelRequestHeader& header,
                              cdr::ByteOrder order = cdr::NativeOrder());
ByteBuffer BuildLocateRequest(Version version,
                              const LocateRequestHeader& header,
                              cdr::ByteOrder order = cdr::NativeOrder());
ByteBuffer BuildLocateReply(Version version, const LocateReplyHeader& header,
                            cdr::ByteOrder order = cdr::NativeOrder());
ByteBuffer BuildCloseConnection(Version version,
                                cdr::ByteOrder order = cdr::NativeOrder());
ByteBuffer BuildMessageError(Version version,
                             cdr::ByteOrder order = cdr::NativeOrder());

// --- scatter-gather assembly ------------------------------------------------
// The allocation-free invocation path never concatenates the CDR argument
// buffer into the frame. Instead the engine builds a *preamble* — GIOP
// header + Request/Reply header, trailing 8-alignment included, with
// message_size already patched for a tail of `tail_size` octets — into a
// pooled buffer, and hands {preamble, args} to ComChannel::SendMessageV.

// RequestHeader by view: field spans alias caller-owned storage, so
// building a preamble copies no object key / operation / principal bytes.
// qos_params (the 9.9 extension field) and service_context may be null
// (encoded as empty).
struct RequestHeaderView {
  const ServiceContextList* service_context = nullptr;
  corba::ULong request_id = 0;
  corba::Boolean response_expected = true;
  std::span<const corba::Octet> object_key;
  std::string_view operation;
  std::span<const corba::Octet> requesting_principal;
  const std::vector<qos::QoSParameter>* qos_params = nullptr;
};

// Encodes the preamble into `buf` (cleared first; typically a BufferPool
// lease) and returns it. The preamble ends 8-aligned so a CDR body encoded
// at an 8-aligned base offset splices in behind it unchanged; message_size
// is patched for preamble + `tail_size` octets of body to follow.
ByteBuffer BuildRequestPreamble(Version version,
                                const RequestHeaderView& header,
                                std::size_t tail_size, cdr::ByteOrder order,
                                ByteBuffer buf);
ByteBuffer BuildReplyPreamble(Version version, const ReplyHeader& header,
                              std::size_t tail_size, cdr::ByteOrder order,
                              ByteBuffer buf);

// Back-patches message_size = (frame.size() - kHeaderSize) + tail_size into
// an assembled frame prefix (endianness taken from the header's byte_order
// octet). `frame` must start with a 12-octet GIOP header.
void PatchMessageSize(ByteBuffer& frame, std::size_t tail_size);

// --- in-place assembly ------------------------------------------------------
// Building blocks for assembling a message directly into externally-owned
// memory (e.g. a Da CaPo packet) instead of a full-message staging
// buffer: the fixed header with message_size already filled in, and the
// Reply's CDR header body encoded at base offset kHeaderSize (trailing
// 8-alignment included) so the result body splices in behind it unchanged.

std::array<corba::Octet, kHeaderSize> HeaderBytes(Version version,
                                                  MsgType type,
                                                  corba::ULong message_size,
                                                  cdr::ByteOrder order);

ByteBuffer BuildReplyHeaderBody(const ReplyHeader& header,
                                cdr::ByteOrder order = cdr::NativeOrder());

// --- decoding ---------------------------------------------------------------

// A parsed message: the validated header plus the full wire frame. Owning
// the frame as a ByteBuffer lets the engines adopt the transport's receive
// buffer by move — zero copies on the receive path, and pooled storage
// returns to its BufferPool when the ParsedMessage dies. Decoders and
// body() spans alias `buffer` and must not outlive it.
struct ParsedMessage {
  MessageHeader header;
  // Full frame: 12-octet GIOP header + body.
  ByteBuffer buffer;

  // Body octets (excluding the 12-octet GIOP header).
  std::span<const corba::Octet> body() const noexcept {
    return buffer.view().subspan(kHeaderSize);
  }

  cdr::Decoder MakeBodyDecoder() const {
    return cdr::Decoder(body(), header.byte_order, kHeaderSize);
  }
};

// Parses and validates the 12-octet header.
Result<MessageHeader> ParseHeader(std::span<const corba::Octet> bytes);

// Parses a complete message (header + body in one buffer, as delivered by
// the generic transport layer). The span overload copies the frame into
// the ParsedMessage; the ByteBuffer overload adopts it without copying —
// the engines use the latter with the transport's receive buffer.
Result<ParsedMessage> ParseMessage(std::span<const corba::Octet> bytes);
Result<ParsedMessage> ParseMessage(ByteBuffer frame);

// Body parsers. `ParseRequestHeader` reads qos_params iff version is 9.9.
Result<RequestHeader> ParseRequestHeader(cdr::Decoder& dec, Version version);
Result<ReplyHeader> ParseReplyHeader(cdr::Decoder& dec);
Result<CancelRequestHeader> ParseCancelRequestHeader(cdr::Decoder& dec);
Result<LocateRequestHeader> ParseLocateRequestHeader(cdr::Decoder& dec);
Result<LocateReplyHeader> ParseLocateReplyHeader(cdr::Decoder& dec);

// True when this implementation speaks `v` (1.0 always; 9.9 iff the peer
// enabled the extension — the engine checks that flag).
bool IsKnownVersion(Version v) noexcept;

}  // namespace cool::giop

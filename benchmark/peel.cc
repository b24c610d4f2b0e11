#include "peel.h"

#include <atomic>
#include <cstring>

#include "giop/message.h"
#include "sim/network.h"
#include "stats.h"
#include "transport/dacapo_channel.h"
#include "transport/tcp_channel.h"

namespace orbbench {

namespace cdr = cool::cdr;
namespace giop = cool::giop;
namespace transport = cool::transport;
using cool::ByteBuffer;

namespace {

// One request shape with everything the peels feed the layers: the CDR
// bodies, the decoded arguments and the whole GIOP frames.
struct Shape {
  Op op = Op::kEcho;
  std::uint32_t seq = 0;
  std::uint32_t value = 0;  // the servant's result value
  ByteBuffer args;
  ByteBuffer result;
  Request req;  // aliases `args`
  ByteBuffer request_frame;
  ByteBuffer reply_frame;
};

// Keeps the compiler from discarding work whose result is otherwise unused.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// Median nanoseconds per call of fn(i), timed in batches until `budget`
// has passed (after one untimed batch).
template <typename F>
double NsPerOp(Duration budget, F&& fn) {
  constexpr std::size_t kBatch = 64;
  std::size_t i = 0;
  for (std::size_t k = 0; k < kBatch; ++k) fn(i++);
  std::vector<double> per_op;
  const TimePoint end = cool::Now() + budget;
  do {
    const TimePoint t0 = cool::Now();
    for (std::size_t k = 0; k < kBatch; ++k) fn(i++);
    per_op.push_back(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                cool::Now() - t0)
                .count()) /
        kBatch);
  } while (cool::Now() < end);
  return Median(std::move(per_op));
}

giop::Version VersionFor(const PeelInputs& in) {
  return in.qos_params.empty() ? giop::kGiop10 : giop::kGiopQos;
}

giop::RequestHeaderView HeaderView(const PeelInputs& in, const Shape& s) {
  giop::RequestHeaderView view;
  view.request_id = s.seq + 1;
  view.object_key = in.object_key;
  view.operation = OpName(s.op);
  view.qos_params = in.qos_params.empty() ? nullptr : &in.qos_params;
  return view;
}

giop::ReplyHeader ReplyHeaderFor(const Shape& s) {
  giop::ReplyHeader header;
  header.request_id = s.seq + 1;
  return header;
}

Result<std::vector<Shape>> BuildShapes(const PeelInputs& in,
                                       const Payload& payload) {
  const cdr::ByteOrder order = cdr::NativeOrder();
  const giop::Version version = VersionFor(in);
  std::vector<Shape> shapes(in.ops.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    Shape& s = shapes[i];
    s.op = in.ops[i];
    s.seq = static_cast<std::uint32_t>(i);
    s.value = s.op == Op::kPut || s.op == Op::kGet
                  ? static_cast<std::uint32_t>(kBulkBytes)
                  : s.seq;
    cdr::Encoder args(order, 0);
    EncodeArgs(args, s.op, 0, s.seq, payload);
    s.args = args.TakeBuffer();
    cdr::Decoder dec(s.args.view(), order, 0);
    COOL_ASSIGN_OR_RETURN(s.req, DecodeArgs(s.op, dec));
    cdr::Encoder result(order, 0);
    EncodeResult(result, s.op, s.req, s.value, payload);
    s.result = result.TakeBuffer();

    s.request_frame = giop::BuildRequestPreamble(
        version, HeaderView(in, s), s.args.size(), order, ByteBuffer());
    s.request_frame.Append(s.args.view());
    s.reply_frame = giop::BuildReplyPreamble(version, ReplyHeaderFor(s),
                                             s.result.size(), order,
                                             ByteBuffer());
    s.reply_frame.Append(s.result.view());
  }
  return shapes;
}

struct Rtt {
  double p50_us = 0;
  double p99_us = 0;
};

// Echoes the shapes' request frames through `client` -> `server` and back
// (the server answers each with the matching reply frame) until `budget`
// has passed, and checks every reply against the frame sent.
Result<Rtt> EchoRtt(transport::ComManager& client_mgr,
                    transport::ComManager& server_mgr,
                    const cool::sim::Address& remote,
                    const cool::qos::QoSSpec& spec,
                    const std::vector<Shape>& shapes, Duration budget) {
  Result<std::unique_ptr<transport::ComChannel>> accepted(
      Status(cool::InternalError("not accepted")));
  Result<std::unique_ptr<transport::ComChannel>> opened(
      Status(cool::InternalError("not opened")));
  {
    cool::Thread accept([&] { accepted = server_mgr.AcceptChannel(); });
    opened = client_mgr.OpenChannel(remote, spec);
  }
  if (!opened.ok()) return opened.status();
  if (!accepted.ok()) return accepted.status();
  const std::unique_ptr<transport::ComChannel> client =
      std::move(opened).value();
  const std::unique_ptr<transport::ComChannel> server =
      std::move(accepted).value();

  std::atomic<bool> echo_ok{true};
  cool::Thread echo([&](std::stop_token stop) {
    std::size_t i = 0;
    while (!stop.stop_requested()) {
      auto msg = server->ReceiveMessage(cool::milliseconds(20));
      if (!msg.ok()) continue;
      const Shape& s = shapes[i++ % shapes.size()];
      if (msg->size() != s.request_frame.size() ||
          std::memcmp(msg->data(), s.request_frame.data(), msg->size()) != 0 ||
          !server->Reply(s.reply_frame.view()).ok()) {
        echo_ok = false;
        return;
      }
    }
  });

  std::vector<float> samples;
  Status status = Status::Ok();
  constexpr std::size_t kWarmupCalls = 32;
  const TimePoint end = cool::Now() + budget;
  for (std::size_t i = 0;
       status.ok() && echo_ok && (i < kWarmupCalls || cool::Now() < end); ++i) {
    const Shape& s = shapes[i % shapes.size()];
    const TimePoint t0 = cool::Now();
    auto reply = client->Call(s.request_frame.view(), cool::seconds(10));
    const TimePoint t1 = cool::Now();
    if (!reply.ok()) {
      status = reply.status();
    } else if (reply->size() != s.reply_frame.size() ||
               std::memcmp(reply->data(), s.reply_frame.data(),
                           reply->size()) != 0) {
      status = cool::InternalError("echo returned the wrong frame");
    } else if (i >= kWarmupCalls) {
      samples.push_back(static_cast<float>(cool::ToMicros(t1 - t0)));
    }
  }
  echo.request_stop();
  echo.join();
  client->Close();
  server->Close();
  if (!echo_ok) {
    return Status(cool::InternalError("echo server saw a wrong frame"));
  }
  COOL_RETURN_IF_ERROR(status);
  std::sort(samples.begin(), samples.end());
  return Rtt{SortedQuantile(samples, 0.5), SortedQuantile(samples, 0.99)};
}

}  // namespace

Result<PeelResult> RunPeels(const PeelInputs& in, const Payload& payload,
                            Duration budget) {
  COOL_ASSIGN_OR_RETURN(std::vector<Shape> shapes, BuildShapes(in, payload));
  const cdr::ByteOrder order = cdr::NativeOrder();
  const giop::Version version = VersionFor(in);
  const Duration codec_budget = budget * 8 / 100;
  const Duration rtt_budget = budget * 34 / 100;
  PeelResult r;

  ByteBuffer args_buf;
  ByteBuffer result_buf;
  r.encode_ns = NsPerOp(codec_budget, [&](std::size_t i) {
    const Shape& s = shapes[i % shapes.size()];
    cdr::Encoder args(order, 0, std::move(args_buf));
    EncodeArgs(args, s.op, 0, s.seq, payload);
    args_buf = args.TakeBuffer();
    cdr::Encoder result(order, 0, std::move(result_buf));
    EncodeResult(result, s.op, s.req, s.value, payload);
    result_buf = result.TakeBuffer();
    Keep(args_buf);
    Keep(result_buf);
  });

  bool decoded = true;
  r.decode_ns = NsPerOp(codec_budget, [&](std::size_t i) {
    const Shape& s = shapes[i % shapes.size()];
    cdr::Decoder args(s.args.view(), order, 0);
    const Result<Request> req = DecodeArgs(s.op, args);
    cdr::Decoder result(s.result.view(), order, 0);
    const Result<Reply> reply = DecodeResult(s.op, result);
    decoded = decoded && req.ok() && reply.ok();
    Keep(req);
    Keep(reply);
  });
  if (!decoded) return Status(cool::InternalError("cdr peel: decode failed"));

  ByteBuffer head_buf;
  bool parsed_ok = true;
  r.request_codec_ns = NsPerOp(codec_budget, [&](std::size_t i) {
    Shape& s = shapes[i % shapes.size()];
    head_buf = giop::BuildRequestPreamble(version, HeaderView(in, s),
                                          s.args.size(), order,
                                          std::move(head_buf));
    Result<giop::ParsedMessage> msg =
        giop::ParseMessage(std::move(s.request_frame));
    if (!msg.ok()) {
      parsed_ok = false;
      return;
    }
    cdr::Decoder dec = msg->MakeBodyDecoder();
    const Result<giop::RequestHeader> header =
        giop::ParseRequestHeader(dec, msg->header.version);
    parsed_ok = parsed_ok && header.ok();
    Keep(header);
    s.request_frame = std::move(msg->buffer);
  });
  if (!parsed_ok) return Status(cool::InternalError("giop peel: parse failed"));

  r.reply_codec_ns = NsPerOp(codec_budget, [&](std::size_t i) {
    const Shape& s = shapes[i % shapes.size()];
    head_buf = giop::BuildReplyPreamble(version, ReplyHeaderFor(s),
                                        s.result.size(), order,
                                        std::move(head_buf));
    cdr::Decoder dec(head_buf.view().subspan(giop::kHeaderSize), order,
                     giop::kHeaderSize);
    const Result<giop::ReplyHeader> header = giop::ParseReplyHeader(dec);
    parsed_ok = parsed_ok && header.ok();
    Keep(header);
  });
  if (!parsed_ok) {
    return Status(cool::InternalError("giop peel: reply parse failed"));
  }

  {
    cool::sim::Network net(FastLink());
    transport::TcpComManager server_mgr(&net, {"peel-server", 7001});
    transport::TcpComManager client_mgr(&net, {"peel-client", 7001});
    COOL_RETURN_IF_ERROR(server_mgr.Listen());
    COOL_ASSIGN_OR_RETURN(Rtt tcp, EchoRtt(client_mgr, server_mgr,
                                           server_mgr.address(), {}, shapes,
                                           rtt_budget));
    r.tcp_rtt_p50_us = tcp.p50_us;
    r.tcp_rtt_p99_us = tcp.p99_us;
  }
  {
    cool::sim::Network net(FastLink());
    transport::DacapoComManager server_mgr(&net, {"peel-server", 7003},
                                           FastLinkEstimate());
    transport::DacapoComManager client_mgr(&net, {"peel-client", 7003},
                                           FastLinkEstimate());
    COOL_RETURN_IF_ERROR(server_mgr.Listen());
    COOL_ASSIGN_OR_RETURN(Rtt dacapo,
                          EchoRtt(client_mgr, server_mgr, server_mgr.address(),
                                  in.dacapo_spec, shapes, rtt_budget));
    r.dacapo_rtt_p50_us = dacapo.p50_us;
    r.dacapo_rtt_p99_us = dacapo.p99_us;
  }
  return r;
}

}  // namespace orbbench

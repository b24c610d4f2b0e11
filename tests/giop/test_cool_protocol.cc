// The proprietary COOL message protocol (the second protocol of the
// generic message layer, paper Fig. 1) — wire codecs and engines.

#include "giop/cool_protocol.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/thread.h"
#include "transport/tcp_channel.h"

namespace cool::coolproto {
namespace {

corba::OctetSeq Key(std::string_view s) { return {s.begin(), s.end()}; }

Request SampleRequest() {
  Request r;
  r.id = 7;
  r.object_key = Key("obj");
  r.operation = "render";
  r.qos_params = {qos::RequireThroughputKbps(1000, 100)};
  r.args = {1, 2, 3, 4};
  return r;
}

TEST(CoolProtocolTest, RequestRoundTrip) {
  const Request request = SampleRequest();
  const ByteBuffer wire = EncodeRequest(request);
  auto decoded = DecodeRequest(wire.view());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->id, request.id);
  EXPECT_EQ(decoded->response_expected, true);
  EXPECT_EQ(decoded->object_key, request.object_key);
  EXPECT_EQ(decoded->operation, request.operation);
  EXPECT_EQ(decoded->qos_params, request.qos_params);
  EXPECT_EQ(decoded->args, request.args);
}

TEST(CoolProtocolTest, ReplyRoundTrip) {
  Reply reply;
  reply.id = 9;
  reply.status = giop::ReplyStatus::kUserException;
  reply.results = {9, 8, 7};
  auto decoded = DecodeReply(EncodeReply(reply).view());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->id, 9u);
  EXPECT_EQ(decoded->status, giop::ReplyStatus::kUserException);
  EXPECT_EQ(decoded->results, (std::vector<std::uint8_t>{9, 8, 7}));
}

TEST(CoolProtocolTest, MoreCompactThanGiopForSameInvocation) {
  // The reason a vendor protocol existed: same logical request, fewer
  // bytes on the wire than GIOP (no contexts, no principal, no padding).
  const Request request = SampleRequest();
  const ByteBuffer cool_wire = EncodeRequest(request);

  giop::RequestHeader giop_request;
  giop_request.request_id = request.id;
  giop_request.object_key = request.object_key;
  giop_request.operation = request.operation;
  giop_request.qos_params = request.qos_params;
  const ByteBuffer giop_wire =
      giop::BuildRequest(giop::kGiopQos, giop_request, request.args);

  EXPECT_LT(cool_wire.size(), giop_wire.size());
}

TEST(CoolProtocolTest, MalformedInputRejected) {
  EXPECT_FALSE(DecodeRequest(std::vector<std::uint8_t>{}).ok());
  EXPECT_FALSE(
      DecodeRequest(std::vector<std::uint8_t>{'C', 'O', 'O', 'L'}).ok());
  ByteBuffer wire = EncodeRequest(SampleRequest());
  wire.data()[0] = 'X';
  EXPECT_FALSE(DecodeRequest(wire.view()).ok());
  // Truncations of a valid message never crash and never succeed.
  const ByteBuffer full = EncodeRequest(SampleRequest());
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(DecodeRequest(full.view().subspan(0, cut)).ok()) << cut;
  }
}

TEST(CoolProtocolTest, TypeConfusionRejected) {
  const ByteBuffer req = EncodeRequest(SampleRequest());
  EXPECT_FALSE(DecodeReply(req.view()).ok());
  Reply reply;
  EXPECT_FALSE(DecodeRequest(EncodeReply(reply).view()).ok());
}

class CoolEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::LinkProperties link;
    link.bandwidth_bps = 0;
    link.latency = microseconds(50);
    net_ = std::make_unique<sim::Network>(link);
    server_mgr_ = std::make_unique<transport::TcpComManager>(
        net_.get(), sim::Address{"server", 7900});
    ASSERT_TRUE(server_mgr_->Listen().ok());
    Result<std::unique_ptr<transport::ComChannel>> accepted(
        Status(InternalError("unset")));
    cool::Thread accept([&] { accepted = server_mgr_->AcceptChannel(); });
    transport::TcpComManager client_mgr(net_.get(),
                                        sim::Address{"client", 7900});
    auto opened = client_mgr.OpenChannel({"server", 7900}, {});
    accept.join();
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(accepted.ok());
    client_channel_ = std::move(opened).value();
    server_channel_ = std::move(accepted).value();
  }

  // Receives the next message on the server channel and hands it to
  // `server`, as a reactor callback would.
  void ServeNext(CoolServer& server) {
    auto raw = server_channel_->ReceiveMessage(seconds(5));
    if (raw.ok()) (void)server.HandleFrame(*raw);
  }

  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<transport::TcpComManager> server_mgr_;
  std::unique_ptr<transport::ComChannel> client_channel_;
  std::unique_ptr<transport::ComChannel> server_channel_;
};

TEST_F(CoolEngineTest, InvokeRoundTrip) {
  CoolClient client(client_channel_.get());
  CoolServer server(server_channel_.get(),
                    [](const Request& request, cdr::Decoder& args) {
                      giop::GiopServer::DispatchResult result;
                      cdr::Encoder out(cdr::ByteOrder::kLittleEndian, 0);
                      auto v = args.GetLong();
                      out.PutLong(v.ok() ? *v * 2 : -1);
                      out.PutString(request.operation);
                      result.body = std::move(out).TakeBuffer();
                      return result;
                    });
  cool::Thread server_thread([&] { ServeNext(server); });

  cdr::Encoder args(cdr::ByteOrder::kLittleEndian, 0);
  args.PutLong(21);
  auto reply = client.Invoke(Key("obj"), "double", args.buffer().view(), {});
  server_thread.join();
  ASSERT_TRUE(reply.ok()) << reply.status();
  cdr::Decoder dec(reply->results, cdr::ByteOrder::kLittleEndian, 0);
  EXPECT_EQ(*dec.GetLong(), 42);
  EXPECT_EQ(*dec.GetString(), "double");
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST_F(CoolEngineTest, QosParamsTravelNatively) {
  CoolClient client(client_channel_.get());
  CoolServer server(server_channel_.get(),
                    [](const Request& request, cdr::Decoder&) {
                      giop::GiopServer::DispatchResult result;
                      cdr::Encoder out(cdr::ByteOrder::kLittleEndian, 0);
                      out.PutULong(static_cast<corba::ULong>(
                          request.qos_params.size()));
                      result.body = std::move(out).TakeBuffer();
                      return result;
                    });
  cool::Thread server_thread([&] { ServeNext(server); });
  auto reply = client.Invoke(Key("obj"), "op", {},
                             {qos::RequireReliability(2),
                              qos::RequireOrdering(true)});
  server_thread.join();
  ASSERT_TRUE(reply.ok());
  cdr::Decoder dec(reply->results, cdr::ByteOrder::kLittleEndian, 0);
  EXPECT_EQ(*dec.GetULong(), 2u);
}

TEST_F(CoolEngineTest, OnewayServed) {
  CoolClient client(client_channel_.get());
  std::atomic<int> pokes{0};
  CoolServer server(server_channel_.get(),
                    [&](const Request& request, cdr::Decoder&) {
                      EXPECT_FALSE(request.response_expected);
                      ++pokes;
                      return giop::GiopServer::DispatchResult{};
                    });
  cool::Thread server_thread([&] { ServeNext(server); });
  ASSERT_TRUE(client.InvokeOneway(Key("obj"), "poke", {}, {}).ok());
  server_thread.join();
  EXPECT_EQ(pokes.load(), 1);
}

TEST_F(CoolEngineTest, GarbageAnsweredWithErrorMessage) {
  CoolServer server(server_channel_.get(),
                    [](const Request&, cdr::Decoder&) {
                      return giop::GiopServer::DispatchResult{};
                    });
  cool::Thread server_thread([&] { ServeNext(server); });
  ASSERT_TRUE(client_channel_
                  ->SendMessage(std::vector<std::uint8_t>{'b', 'a', 'd'})
                  .ok());
  auto raw = client_channel_->ReceiveMessage(seconds(5));
  server_thread.join();
  ASSERT_TRUE(raw.ok());
  auto type = PeekType(raw->view());
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, MsgType::kError);
}

}  // namespace
}  // namespace cool::coolproto

// GIOP client/server engines over a real transport channel: invocation
// modes, reply matching, version gating (backwards compatibility with
// unmodified GIOP 1.0 peers), cancel semantics.

#include "giop/engine.h"

#include <gtest/gtest.h>

#include <optional>

#include "common/clock.h"
#include "engine_rig.h"

namespace cool::giop {
namespace {

using testing::Eventually;
using testing::Key;
using testing::Rig;
using testing::Serving;

// Echo dispatcher: returns the request's operation name and its one long
// argument + 1.
GiopServer::DispatchResult EchoDispatch(const RequestHeader& header,
                                        cdr::Decoder& args) {
  GiopServer::DispatchResult result;
  cdr::Encoder body(cdr::NativeOrder(), 0);
  body.PutString(header.operation);
  auto value = args.GetLong();
  body.PutLong(value.ok() ? *value + 1 : -1);
  body.PutULong(static_cast<corba::ULong>(header.qos_params.size()));
  result.body = std::move(body).TakeBuffer();
  return result;
}

TEST(GiopEngineTest, SynchronousInvoke) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), rig.reactor, {});
  GiopServer server(rig.server_channel.get(), rig.pool, EchoDispatch,
                    GiopServer::Options{});
  Serving serving(rig, server);

  cdr::Encoder args = client.MakeArgsEncoder();
  args.PutLong(41);
  auto reply = client.Invoke(Key("obj"), "ping", args.buffer().view(), {});
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->header.reply_status, ReplyStatus::kNoException);

  cdr::Decoder dec = reply->MakeResultsDecoder();
  EXPECT_EQ(*dec.GetString(), "ping");
  EXPECT_EQ(*dec.GetLong(), 42);
  EXPECT_EQ(*dec.GetULong(), 0u);  // no qos params seen by the server
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(GiopEngineTest, QosParamsReachTheServerInVersion99) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), rig.reactor, {});
  GiopServer server(rig.server_channel.get(), rig.pool, EchoDispatch,
                    GiopServer::Options{});
  Serving serving(rig, server);

  cdr::Encoder args = client.MakeArgsEncoder();
  args.PutLong(1);
  const std::vector<qos::QoSParameter> qos = {
      qos::RequireThroughputKbps(1000, 100), qos::RequireReliability(2)};
  auto reply = client.Invoke(Key("obj"), "op", args.buffer().view(), qos);
  ASSERT_TRUE(reply.ok());
  cdr::Decoder dec = reply->MakeResultsDecoder();
  (void)dec.GetString();
  (void)dec.GetLong();
  EXPECT_EQ(*dec.GetULong(), 2u);  // server saw both qos params
}

TEST(GiopEngineTest, UnmodifiedServerRejects99WithMessageError) {
  // Paper backwards compatibility: a server without the extension answers
  // a 9.9 Request with MessageError; the client surfaces a protocol error.
  Rig rig;
  GiopClient client(rig.client_channel.get(), rig.reactor, {});
  GiopServer::Options legacy;
  legacy.accept_qos_extension = false;
  GiopServer server(rig.server_channel.get(), rig.pool, EchoDispatch, legacy);
  Serving serving(rig, server);

  auto reply = client.Invoke(Key("obj"), "op", {},
                             {qos::RequireReliability(1)});
  EXPECT_EQ(reply.status().code(), ErrorCode::kProtocolError);
  EXPECT_EQ(server.requests_served(), 0u);
}

TEST(GiopEngineTest, LegacyServerStillServes10AfterRejecting99) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), rig.reactor, {});
  GiopServer::Options legacy;
  legacy.accept_qos_extension = false;
  GiopServer server(rig.server_channel.get(), rig.pool, EchoDispatch, legacy);
  Serving serving(rig, server);

  auto rejected = client.Invoke(Key("obj"), "op", {},
                                {qos::RequireReliability(1)});
  EXPECT_FALSE(rejected.ok());
  // Plain 1.0 request on the same connection still succeeds.
  cdr::Encoder args = client.MakeArgsEncoder();
  args.PutLong(1);
  auto accepted = client.Invoke(Key("obj"), "op", args.buffer().view(), {});
  EXPECT_TRUE(accepted.ok()) << accepted.status();
}

TEST(GiopEngineTest, ClientWithoutExtensionNeverSends99) {
  Rig rig;
  GiopClient::Options opts;
  opts.use_qos_extension = false;
  GiopClient client(rig.client_channel.get(), rig.reactor, opts);
  GiopServer server(
      rig.server_channel.get(), rig.pool,
      [](const RequestHeader& header, cdr::Decoder&) {
        GiopServer::DispatchResult r;
        cdr::Encoder body(cdr::NativeOrder(), 0);
        body.PutULong(static_cast<corba::ULong>(header.qos_params.size()));
        r.body = std::move(body).TakeBuffer();
        return r;
      },
      GiopServer::Options{});
  Serving serving(rig, server);

  // QoS params supplied but extension off -> silently stripped (pure 1.0).
  auto reply =
      client.Invoke(Key("obj"), "op", {}, {qos::RequireReliability(1)});
  ASSERT_TRUE(reply.ok());
  cdr::Decoder dec = reply->MakeResultsDecoder();
  EXPECT_EQ(*dec.GetULong(), 0u);
}

TEST(GiopEngineTest, OnewayDoesNotWaitForReply) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), rig.reactor, {});
  std::atomic<int> served{0};
  GiopServer server(
      rig.server_channel.get(), rig.pool,
      [&](const RequestHeader& header, cdr::Decoder&) {
        ++served;
        EXPECT_FALSE(header.response_expected);
        return GiopServer::DispatchResult{};
      },
      GiopServer::Options{});
  Serving serving(rig, server);
  ASSERT_TRUE(client.InvokeOneway(Key("obj"), "notify", {}, {}).ok());
  EXPECT_TRUE(Eventually([&] { return served.load() == 1; }));
}

TEST(GiopEngineTest, DeferredInvokeAndPoll) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), rig.reactor, {});
  GiopServer server(rig.server_channel.get(), rig.pool, EchoDispatch,
                    GiopServer::Options{});
  Serving serving(rig, server);

  cdr::Encoder args = client.MakeArgsEncoder();
  args.PutLong(10);
  auto id = client.InvokeDeferred(Key("obj"), "later", args.buffer().view(),
                                  {});
  ASSERT_TRUE(id.ok());
  auto reply = client.PollReply(*id);
  ASSERT_TRUE(reply.ok());
  cdr::Decoder dec = reply->MakeResultsDecoder();
  EXPECT_EQ(*dec.GetString(), "later");
  EXPECT_EQ(*dec.GetLong(), 11);
}

TEST(GiopEngineTest, CancelledReplyIsDiscarded) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), rig.reactor, {});
  GiopServer server(rig.server_channel.get(), rig.pool, EchoDispatch,
                    GiopServer::Options{});
  // The cancel may arrive after the reply was already sent.
  Serving serving(rig, server);

  cdr::Encoder args = client.MakeArgsEncoder();
  args.PutLong(1);
  auto id = client.InvokeDeferred(Key("obj"), "doomed", args.buffer().view(),
                                  {});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client.Cancel(*id).ok());

  // A later invocation must not be confused by the stale reply.
  cdr::Encoder args2 = client.MakeArgsEncoder();
  args2.PutLong(100);
  auto reply = client.Invoke(Key("obj"), "fresh", args2.buffer().view(), {});
  ASSERT_TRUE(reply.ok()) << reply.status();
  cdr::Decoder dec = reply->MakeResultsDecoder();
  EXPECT_EQ(*dec.GetString(), "fresh");
  EXPECT_EQ(*dec.GetLong(), 101);
}

TEST(GiopEngineTest, LocateRequestUsesLocator) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), rig.reactor, {});
  GiopServer server(rig.server_channel.get(), rig.pool, EchoDispatch,
                    GiopServer::Options{});
  server.SetLocator(
      [](const corba::OctetSeq& key) { return key == Key("exists"); });
  Serving serving(rig, server);

  auto here = client.Locate(Key("exists"));
  ASSERT_TRUE(here.ok());
  EXPECT_EQ(*here, LocateStatus::kObjectHere);
  auto gone = client.Locate(Key("missing"));
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(*gone, LocateStatus::kUnknownObject);
}

TEST(GiopEngineTest, CloseConnectionEndsServeLoop) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), rig.reactor, {});
  GiopServer server(rig.server_channel.get(), rig.pool, EchoDispatch,
                    GiopServer::Options{});
  Serving serving(rig, server);
  ASSERT_TRUE(client.SendClose().ok());
  EXPECT_EQ(serving.WaitEnded().code(), ErrorCode::kCancelled);
}

TEST(GiopEngineTest, GarbageTriggersMessageErrorButConnectionSurvives) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), rig.reactor, {});
  GiopServer server(rig.server_channel.get(), rig.pool, EchoDispatch,
                    GiopServer::Options{});
  Serving serving(rig, server);

  // Raw garbage straight into the channel.
  const std::vector<std::uint8_t> junk = {'J', 'U', 'N', 'K', 0, 0,
                                          0,   0,   0,   0,   0, 0};
  ASSERT_TRUE(rig.client_channel->SendMessage(junk).ok());
  // The server answers MessageError. The client registers its demux only
  // with its first call, so this raw receive sees the answer...
  auto err = rig.client_channel->ReceiveMessage(seconds(2));
  ASSERT_TRUE(err.ok());
  auto parsed = ParseMessage(err->view());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header.message_type, MsgType::kMessageError);

  // ...and a well-formed request still goes through afterwards.
  cdr::Encoder args = client.MakeArgsEncoder();
  args.PutLong(5);
  auto reply = client.Invoke(Key("obj"), "op", args.buffer().view(), {});
  EXPECT_TRUE(reply.ok()) << reply.status();
}

TEST(GiopEngineTest, RequestIdsIncrease) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), rig.reactor, {});
  GiopServer server(rig.server_channel.get(), rig.pool, EchoDispatch,
                    GiopServer::Options{});
  Serving serving(rig, server);
  for (int i = 0; i < 3; ++i) {
    cdr::Encoder args = client.MakeArgsEncoder();
    args.PutLong(i);
    ASSERT_TRUE(
        client.Invoke(Key("obj"), "op", args.buffer().view(), {}).ok());
  }
  EXPECT_EQ(client.last_request_id(), 3u);
}

// Replies arrive via a reactor callback, not a thread of the engine's own,
// and teardown barriers the registration out promptly.
TEST(GiopEngineTest, ReactorDemuxInvokeAndTeardown) {
  Rig rig;
  std::optional<GiopClient> client(std::in_place, rig.client_channel.get(),
                                   rig.reactor, GiopClient::Options{});
  GiopServer server(rig.server_channel.get(), rig.pool, EchoDispatch,
                    GiopServer::Options{});

  Serving serving(rig, server);
  for (int i = 0; i < 2; ++i) {
    cdr::Encoder args = client->MakeArgsEncoder();
    args.PutLong(41);
    auto reply =
        client->Invoke(Key("obj"), "ping", args.buffer().view(), {});
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->header.reply_status, ReplyStatus::kNoException);
    cdr::Decoder dec = reply->MakeResultsDecoder();
    EXPECT_EQ(*dec.GetString(), "ping");
    EXPECT_EQ(*dec.GetLong(), 42);
  }

  Stopwatch timer;
  rig.client_channel->Close();
  client.reset();  // Remove() barrier, no thread to join
  EXPECT_LT(timer.Elapsed(), seconds(5));
}

}  // namespace
}  // namespace cool::giop

// Fig. 7 alternative (ii): GIOP running as a Da CaPo A-module, driven by
// an unchanged GiopClient over a raw session channel.
#include "orb/giop_module.h"

#include <gtest/gtest.h>

#include <thread>

#include "giop/engine.h"
#include "test_servants.h"
#include "transport/reactor.h"

namespace cool::orb {
namespace {

using testing::CalcServant;
using testing::LimitedQoSServant;

sim::LinkProperties QuickLink() {
  sim::LinkProperties link;
  link.bandwidth_bps = 0;
  link.latency = microseconds(100);
  return link;
}

class Alt2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<sim::Network>(QuickLink());
    ASSERT_TRUE(
        adapter_.Activate("calc", std::make_shared<CalcServant>()).ok());
    server_ = std::make_unique<Alt2Server>(
        net_.get(), sim::Address{"server", 7700}, &adapter_);
    ASSERT_TRUE(server_->Start().ok());
  }

  // Connects a raw Da CaPo session (optionally with C modules) and wraps
  // it as a channel for GiopClient.
  std::unique_ptr<SessionComChannel> Connect(
      dacapo::ModuleGraphSpec graph = {}) {
    dacapo::ChannelOptions options;
    options.graph = std::move(graph);
    dacapo::Connector connector(net_.get(), "client");
    auto session = connector.Connect({"server", 7700}, options);
    EXPECT_TRUE(session.ok()) << session.status();
    if (!session.ok()) return nullptr;
    return std::make_unique<SessionComChannel>(std::move(session).value());
  }

  corba::OctetSeq Key(std::string_view s) { return {s.begin(), s.end()}; }

  std::unique_ptr<sim::Network> net_;
  ObjectAdapter adapter_;
  std::unique_ptr<Alt2Server> server_;
  transport::Reactor reactor_{1};  // the clients' reply demux
};

TEST_F(Alt2Test, InvocationThroughTheModuleGraph) {
  auto channel = Connect();
  ASSERT_NE(channel, nullptr);
  giop::GiopClient client(channel.get(), reactor_, {});
  cdr::Encoder args = client.MakeArgsEncoder();
  args.PutLong(40);
  args.PutLong(2);
  auto reply = client.Invoke(Key("calc"), "add", args.buffer().view(), {});
  ASSERT_TRUE(reply.ok()) << reply.status();
  cdr::Decoder dec = reply->MakeResultsDecoder();
  EXPECT_EQ(*dec.GetLong(), 42);
  EXPECT_EQ(server_->connections(), 1u);
}

TEST_F(Alt2Test, WorksWithConfiguredCModulesBelowGiop) {
  // GIOP above cipher+checksum modules: the message protocol is literally
  // one more module in the graph.
  dacapo::ModuleGraphSpec graph;
  dacapo::MechanismSpec cipher;
  cipher.name = dacapo::mechanisms::kXorCipher;
  cipher.params["key"] = 99;
  graph.chain = {cipher, {dacapo::mechanisms::kCrc32, {}}};
  auto channel = Connect(graph);
  ASSERT_NE(channel, nullptr);
  giop::GiopClient client(channel.get(), reactor_, {});
  cdr::Encoder args = client.MakeArgsEncoder();
  args.PutString("via alt2");
  auto reply = client.Invoke(Key("calc"), "echo", args.buffer().view(), {});
  ASSERT_TRUE(reply.ok()) << reply.status();
  cdr::Decoder dec = reply->MakeResultsDecoder();
  EXPECT_EQ(*dec.GetString(), "via alt2");
}

TEST_F(Alt2Test, QosNegotiationStillWorks) {
  ASSERT_TRUE(adapter_
                  .Activate("ltd",
                            std::make_shared<LimitedQoSServant>(1000))
                  .ok());
  auto channel = Connect();
  ASSERT_NE(channel, nullptr);
  giop::GiopClient client(channel.get(), reactor_, {});
  cdr::Encoder args = client.MakeArgsEncoder();
  args.PutLong(1);
  args.PutLong(1);
  auto reply =
      client.Invoke(Key("ltd"), "add", args.buffer().view(),
                    {qos::RequireThroughputKbps(9000, 5000)});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->header.reply_status,
            giop::ReplyStatus::kSystemException);
}

TEST_F(Alt2Test, LocateRequestAnswered) {
  auto channel = Connect();
  ASSERT_NE(channel, nullptr);
  giop::GiopClient client(channel.get(), reactor_, {});
  auto here = client.Locate(Key("calc"));
  ASSERT_TRUE(here.ok()) << here.status();
  EXPECT_EQ(*here, giop::LocateStatus::kObjectHere);
  auto gone = client.Locate(Key("nope"));
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(*gone, giop::LocateStatus::kUnknownObject);
}

TEST_F(Alt2Test, LegacyModeRejectsExtendedGiop) {
  ObjectAdapter legacy_adapter;
  ASSERT_TRUE(
      legacy_adapter.Activate("calc", std::make_shared<CalcServant>())
          .ok());
  GiopServerAModule::Options legacy;
  legacy.accept_qos_extension = false;
  Alt2Server legacy_server(net_.get(), sim::Address{"server", 7701},
                           &legacy_adapter, legacy);
  ASSERT_TRUE(legacy_server.Start().ok());

  dacapo::Connector connector(net_.get(), "client");
  auto session = connector.Connect({"server", 7701}, {});
  ASSERT_TRUE(session.ok());
  SessionComChannel channel(std::move(session).value());
  giop::GiopClient client(&channel, reactor_, {});
  auto reply =
      client.Invoke(Key("calc"), "add", {}, {qos::RequireReliability(1)});
  EXPECT_EQ(reply.status().code(), ErrorCode::kProtocolError);
}

TEST_F(Alt2Test, GarbageGetsMessageError) {
  auto channel = Connect();
  ASSERT_NE(channel, nullptr);
  const std::vector<std::uint8_t> junk = {'n', 'o', 'p', 'e'};
  ASSERT_TRUE(channel->SendMessage(junk).ok());
  auto raw = channel->ReceiveMessage(seconds(2));
  ASSERT_TRUE(raw.ok());
  auto parsed = giop::ParseMessage(raw->view());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header.message_type, giop::MsgType::kMessageError);
}

TEST_F(Alt2Test, ManySequentialInvocations) {
  auto channel = Connect();
  ASSERT_NE(channel, nullptr);
  giop::GiopClient client(channel.get(), reactor_, {});
  for (int i = 0; i < 50; ++i) {
    cdr::Encoder args = client.MakeArgsEncoder();
    args.PutLong(i);
    args.PutLong(1);
    auto reply =
        client.Invoke(Key("calc"), "add", args.buffer().view(), {});
    ASSERT_TRUE(reply.ok()) << i << ": " << reply.status();
    cdr::Decoder dec = reply->MakeResultsDecoder();
    ASSERT_EQ(*dec.GetLong(), i + 1);
  }
}

}  // namespace
}  // namespace cool::orb

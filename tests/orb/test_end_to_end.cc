// Full-stack integration (the paper's Fig. 4 path): client stub -> GIOP ->
// generic transport -> simulated network -> server ORB -> object adapter ->
// servant, and back. Parameterized over all three transports.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/thread.h"
#include "orb/stub.h"
#include "test_servants.h"

namespace cool::orb {
namespace {

using testing::CalcServant;

sim::LinkProperties QuickLink() {
  sim::LinkProperties link;
  link.bandwidth_bps = 0;
  link.latency = microseconds(100);
  return link;
}

class EndToEndTest : public ::testing::TestWithParam<Protocol> {
 protected:
  void SetUp() override {
    net_ = std::make_unique<sim::Network>(QuickLink());
    server_ = std::make_unique<ORB>(net_.get(), "server");
    client_ = std::make_unique<ORB>(net_.get(), "client");
    servant_ = std::make_shared<CalcServant>();
    auto ref = server_->RegisterServant("calc", servant_, GetParam());
    ASSERT_TRUE(ref.ok());
    ref_ = *ref;
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    server_->Shutdown();
  }

  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<ORB> server_;
  std::unique_ptr<ORB> client_;
  std::shared_ptr<CalcServant> servant_;
  ObjectRef ref_;
};

TEST_P(EndToEndTest, SynchronousInvocation) {
  Stub stub(client_.get(), ref_);
  cdr::Encoder args = stub.MakeArgsEncoder();
  args.PutLong(40);
  args.PutLong(2);
  auto reply = stub.Invoke("add", args.buffer().view());
  ASSERT_TRUE(reply.ok()) << reply.status();
  cdr::Decoder dec = reply->MakeDecoder();
  EXPECT_EQ(*dec.GetLong(), 42);
  EXPECT_EQ(stub.bound_protocol(), ProtocolName(GetParam()));
}

TEST_P(EndToEndTest, StringsAcrossTheWire) {
  Stub stub(client_.get(), ref_);
  cdr::Encoder args = stub.MakeArgsEncoder();
  args.PutString("middleware");
  args.PutLong(2000);
  auto reply = stub.Invoke("concat", args.buffer().view());
  ASSERT_TRUE(reply.ok()) << reply.status();
  cdr::Decoder dec = reply->MakeDecoder();
  EXPECT_EQ(*dec.GetString(), "middleware:2000");
}

TEST_P(EndToEndTest, RepeatedInvocationsReuseBinding) {
  // Implicit binding: set up during the first method invocation,
  // subsequent invocations use the same connection (paper §2).
  Stub stub(client_.get(), ref_);
  for (int i = 0; i < 10; ++i) {
    cdr::Encoder args = stub.MakeArgsEncoder();
    args.PutLong(i);
    args.PutLong(i);
    auto reply = stub.Invoke("add", args.buffer().view());
    ASSERT_TRUE(reply.ok()) << i << ": " << reply.status();
    cdr::Decoder dec = reply->MakeDecoder();
    EXPECT_EQ(*dec.GetLong(), 2 * i);
  }
  EXPECT_EQ(server_->connections_accepted(), 1u);
  EXPECT_EQ(servant_->calls(), 10);
}

TEST_P(EndToEndTest, SystemExceptionPropagatesToClient) {
  Stub stub(client_.get(), ref_);
  auto reply = stub.Invoke("no_such_operation", {});
  EXPECT_EQ(reply.status().code(), ErrorCode::kUnsupported);
}

TEST_P(EndToEndTest, UserExceptionReachesClientIntact) {
  Stub stub(client_.get(), ref_);
  auto reply = stub.Invoke("raise_user", {});
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status, giop::ReplyStatus::kUserException);
  cdr::Decoder dec = reply->MakeDecoder();
  EXPECT_EQ(*dec.GetString(), "IDL:test/CalcError:1.0");
  EXPECT_EQ(*dec.GetLong(), 13);
}

TEST_P(EndToEndTest, UnknownObjectKey) {
  ObjectRef bad = ref_;
  bad.object_key = {'n', 'o'};
  Stub stub(client_.get(), bad);
  auto reply = stub.Invoke("add", {});
  EXPECT_EQ(reply.status().code(), ErrorCode::kNotFound);
}

TEST_P(EndToEndTest, LocateObject) {
  Stub stub(client_.get(), ref_);
  auto here = stub.LocateObject();
  ASSERT_TRUE(here.ok()) << here.status();
  EXPECT_TRUE(*here);

  ObjectRef bad = ref_;
  bad.object_key = {'n', 'o'};
  Stub ghost(client_.get(), bad);
  auto gone = ghost.LocateObject();
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(*gone);
}

TEST_P(EndToEndTest, UnbindAndRebind) {
  Stub stub(client_.get(), ref_);
  cdr::Encoder args = stub.MakeArgsEncoder();
  args.PutLong(1);
  args.PutLong(1);
  ASSERT_TRUE(stub.Invoke("add", args.buffer().view()).ok());
  ASSERT_TRUE(stub.Unbind().ok());
  EXPECT_EQ(stub.bound_protocol(), "");
  cdr::Encoder args2 = stub.MakeArgsEncoder();
  args2.PutLong(2);
  args2.PutLong(3);
  auto reply = stub.Invoke("add", args2.buffer().view());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(server_->connections_accepted(), 2u);
}

TEST_P(EndToEndTest, ConcurrentClientsServedIndependently) {
  constexpr int kClients = 4;
  constexpr int kCallsEach = 5;
  std::vector<cool::Thread> threads;
  std::atomic<int> ok_count{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Stub stub(client_.get(), ref_);
      for (int i = 0; i < kCallsEach; ++i) {
        cdr::Encoder args = stub.MakeArgsEncoder();
        args.PutLong(c);
        args.PutLong(i);
        auto reply = stub.Invoke("add", args.buffer().view());
        if (!reply.ok()) continue;
        cdr::Decoder dec = reply->MakeDecoder();
        if (*dec.GetLong() == c + i) ++ok_count;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kClients * kCallsEach);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, EndToEndTest,
                         ::testing::Values(Protocol::kTcp, Protocol::kIpc,
                                           Protocol::kDacapo),
                         [](const auto& param_info) {
                           return std::string(ProtocolName(param_info.param));
                         });

TEST(LargeMessageTest, HalfMegabyteRepliesOverTcpAndDacapo) {
  // Exercises TcpBuffer reassembly and the Da CaPo channel's
  // fragmentation/reassembly path with GIOP messages far larger than one
  // packet.
  sim::Network net(QuickLink());
  ORB server(&net, "server");
  ORB client(&net, "client");

  class BlobServant : public Servant {
   public:
    std::string_view repository_id() const override {
      return "IDL:test/Blob:1.0";
    }
    DispatchOutcome Dispatch(std::string_view, cdr::Decoder& args,
                             cdr::Encoder& out) override {
      auto n = args.GetULong();
      if (!n.ok()) {
        return DispatchOutcome::Fail(InvalidArgumentError("bad args"));
      }
      corba::OctetSeq blob(*n);
      for (corba::ULong i = 0; i < *n; ++i) {
        blob[i] = static_cast<corba::Octet>(i * 131 + 7);
      }
      out.PutOctetSeq(blob);
      return DispatchOutcome::Ok();
    }
  };

  std::vector<ObjectRef> refs;
  for (const auto proto : {Protocol::kTcp, Protocol::kDacapo}) {
    auto ref = server.RegisterServant(
        "blob_" + std::string(ProtocolName(proto)),
        std::make_shared<BlobServant>(), proto);
    ASSERT_TRUE(ref.ok());
    refs.push_back(*ref);
  }
  ASSERT_TRUE(server.Start().ok());

  constexpr corba::ULong kBytes = 512 * 1024;
  for (const auto& ref : refs) {
    Stub stub(&client, ref);
    cdr::Encoder args = stub.MakeArgsEncoder();
    args.PutULong(kBytes);
    auto reply = stub.Invoke("make_blob", args.buffer().view(), seconds(30));
    ASSERT_TRUE(reply.ok())
        << ProtocolName(ref.protocol) << ": " << reply.status();
    cdr::Decoder dec = reply->MakeDecoder();
    auto blob = dec.GetOctetSeq();
    ASSERT_TRUE(blob.ok());
    ASSERT_EQ(blob->size(), kBytes) << ProtocolName(ref.protocol);
    for (corba::ULong i = 0; i < kBytes; i += 4099) {
      ASSERT_EQ((*blob)[i], static_cast<corba::Octet>(i * 131 + 7));
    }
  }
  server.Shutdown();
}

TEST(FailureInjectionTest, ServerShutdownMidSessionSurfacesCleanly) {
  sim::Network net(QuickLink());
  auto server = std::make_unique<ORB>(&net, "server");
  ORB client(&net, "client");
  auto ref =
      server->RegisterServant("calc", std::make_shared<CalcServant>());
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(server->Start().ok());

  Stub stub(&client, *ref);
  cdr::Encoder args = stub.MakeArgsEncoder();
  args.PutLong(1);
  args.PutLong(2);
  ASSERT_TRUE(stub.Invoke("add", args.buffer().view()).ok());

  server->Shutdown();
  cdr::Encoder args2 = stub.MakeArgsEncoder();
  args2.PutLong(3);
  args2.PutLong(4);
  auto reply = stub.Invoke("add", args2.buffer().view(), seconds(2));
  EXPECT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().code() == ErrorCode::kUnavailable ||
              reply.status().code() == ErrorCode::kDeadlineExceeded)
      << reply.status();

  // A fresh server instance on the same endsystem serves a rebound stub.
  server = std::make_unique<ORB>(&net, "server");
  auto ref2 =
      server->RegisterServant("calc", std::make_shared<CalcServant>());
  ASSERT_TRUE(ref2.ok());
  ASSERT_TRUE(server->Start().ok());
  ASSERT_TRUE(stub.Unbind().ok());
  cdr::Encoder args3 = stub.MakeArgsEncoder();
  args3.PutLong(5);
  args3.PutLong(6);
  auto recovered = stub.Invoke("add", args3.buffer().view());
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  cdr::Decoder dec = recovered->MakeDecoder();
  EXPECT_EQ(*dec.GetLong(), 11);
  server->Shutdown();
}

TEST(ColocationTest, LocalObjectBypassesTransport) {
  sim::Network net(QuickLink());
  ORB orb(&net, "host");  // never started: no listeners at all
  auto servant = std::make_shared<CalcServant>();
  auto ref = orb.RegisterServant("calc", servant);
  ASSERT_TRUE(ref.ok());

  Stub stub(&orb, *ref);
  cdr::Encoder args = stub.MakeArgsEncoder();
  args.PutLong(20);
  args.PutLong(22);
  auto reply = stub.Invoke("add", args.buffer().view());
  ASSERT_TRUE(reply.ok()) << reply.status();
  cdr::Decoder dec = reply->MakeDecoder();
  EXPECT_EQ(*dec.GetLong(), 42);
  EXPECT_EQ(stub.bound_protocol(), "colocated");
  EXPECT_EQ(orb.connections_accepted(), 0u);
}

TEST(ColocationTest, ExceptionsWorkColocated) {
  sim::Network net(QuickLink());
  ORB orb(&net, "host");
  auto ref = orb.RegisterServant("calc", std::make_shared<CalcServant>());
  ASSERT_TRUE(ref.ok());
  Stub stub(&orb, *ref);
  EXPECT_EQ(stub.Invoke("nope", {}).status().code(),
            ErrorCode::kUnsupported);
}

TEST(IorTest, StubFromStringifiedReference) {
  sim::Network net(QuickLink());
  ORB server(&net, "server");
  ORB client(&net, "client");
  auto ref = server.RegisterServant("calc", std::make_shared<CalcServant>());
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(server.Start().ok());

  // Stringify -> hand to the client as text -> parse -> invoke.
  const std::string ior = ref->ToString();
  auto parsed = ObjectRef::FromString(ior);
  ASSERT_TRUE(parsed.ok());
  Stub stub(&client, *parsed);
  cdr::Encoder args = stub.MakeArgsEncoder();
  args.PutString("via-ior");
  auto reply = stub.Invoke("echo", args.buffer().view());
  ASSERT_TRUE(reply.ok()) << reply.status();
  cdr::Decoder dec = reply->MakeDecoder();
  EXPECT_EQ(*dec.GetString(), "via-ior");
  server.Shutdown();
}

// Live thread count of this process ("Threads:" in /proc/self/status).
int ProcessThreads() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "Threads:\t%d", &threads) == 1) break;
  }
  std::fclose(f);
  return threads;
}

// Every binding's reply demux is a registration on its ORB's reactor, so
// binding many stubs through one client ORB costs at most that reactor's
// workers in threads, not one thread per binding.
TEST(ClientThreadsTest, StubBindingsShareTheOrbReactor) {
  sim::Network net(QuickLink());
  ORB::Options server_options;
  server_options.reactor_threads = 1;  // started by Start(): no growth below
  ORB server(&net, "server", server_options);
  auto ref = server.RegisterServant("calc", std::make_shared<CalcServant>());
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(server.Start().ok());
  ORB client(&net, "client");

  const int before = ProcessThreads();
  ASSERT_GT(before, 0);
  constexpr int kBindings = 64;
  std::vector<std::unique_ptr<Stub>> stubs;
  for (int i = 0; i < kBindings; ++i) {
    stubs.push_back(std::make_unique<Stub>(&client, *ref));
    cdr::Encoder args = stubs.back()->MakeArgsEncoder();
    args.PutLong(i);
    args.PutLong(1);
    auto reply = stubs.back()->Invoke("add", args.buffer().view());
    ASSERT_TRUE(reply.ok()) << reply.status();
  }
  EXPECT_LE(ProcessThreads() - before,
            static_cast<int>(client.reactor().workers()));
  stubs.clear();  // the ORB outlives its stubs
  server.Shutdown();
}

}  // namespace
}  // namespace cool::orb

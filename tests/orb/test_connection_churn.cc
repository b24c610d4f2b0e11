// Connection-churn stress for the reactor-driven connection engine
// (runs under the CI TSan job): accept storms, connections closed while
// dispatches are still queued, and connections abandoned mid-setup. The
// invariant throughout: the server ORB neither crashes, hangs, nor stops
// accepting fresh work.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/thread.h"
#include "giop/message.h"
#include "orb/stub.h"
#include "test_servants.h"

namespace cool::orb {
namespace {

using testing::CalcServant;

bool WaitUntil(const std::function<bool()>& pred,
               Duration timeout = seconds(10)) {
  const TimePoint deadline = DeadlineFor(timeout);
  while (Now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return pred();
}

sim::LinkProperties QuickLink() {
  sim::LinkProperties link;
  link.bandwidth_bps = 0;
  link.latency = microseconds(50);
  return link;
}

class ConnectionChurnTest : public ::testing::TestWithParam<Protocol> {
 protected:
  void SetUp() override {
    net_ = std::make_unique<sim::Network>(QuickLink());
    server_ = std::make_unique<ORB>(net_.get(), "server");
    servant_ = std::make_shared<CalcServant>();
    auto ref = server_->RegisterServant("calc", servant_, GetParam());
    ASSERT_TRUE(ref.ok());
    ref_ = *ref;
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Shutdown(); }

  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<ORB> server_;
  std::shared_ptr<CalcServant> servant_;
  ObjectRef ref_;
};

// Accept storm: many short-lived clients connect, invoke once, disconnect —
// concurrently. Every invocation must succeed and every connection must be
// accepted, with the server's thread count independent of the storm.
TEST_P(ConnectionChurnTest, AcceptStorm) {
  constexpr int kThreads = 8;
  constexpr int kConnectionsPerThread = 8;
  std::atomic<int> failures{0};
  {
    std::vector<Thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t](std::stop_token) {
        for (int i = 0; i < kConnectionsPerThread; ++i) {
          ORB client(net_.get(), "client-" + std::to_string(t) + "-" +
                                     std::to_string(i));
          Stub stub(&client, ref_);
          cdr::Encoder args = stub.MakeArgsEncoder();
          args.PutLong(t);
          args.PutLong(i);
          auto reply = stub.Invoke("add", args.buffer().view());
          if (!reply.ok()) {
            ++failures;
            continue;
          }
          cdr::Decoder dec = reply->MakeDecoder();
          if (*dec.GetLong() != t + i) ++failures;
        }
      });
    }
  }  // joins
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server_->connections_accepted(),
            static_cast<std::uint64_t>(kThreads * kConnectionsPerThread));
}

// Close with queued dispatch: pipeline slow invocations, then drop the
// connection while upcalls are still queued on the shared pool. Teardown
// must not hang on the in-flight work, and the server must keep serving.
TEST_P(ConnectionChurnTest, CloseWithQueuedDispatch) {
  {
    ORB client(net_.get(), "churn-client");
    Stub stub(&client, ref_);
    // Oneway slow invocations queue on the dispatch pool without a reply
    // to wait for; the first one also establishes the binding.
    for (int i = 0; i < 16; ++i) {
      cdr::Encoder args = stub.MakeArgsEncoder();
      args.PutString("queued");
      ASSERT_TRUE(stub.InvokeOneway("slow_echo", args.buffer().view()).ok());
    }
    // Destroying the client ORB closes the channel with work still queued.
  }

  // The engine is intact: a fresh connection serves normally.
  ORB client(net_.get(), "after-churn");
  Stub stub(&client, ref_);
  cdr::Encoder args = stub.MakeArgsEncoder();
  args.PutLong(20);
  args.PutLong(22);
  auto reply = stub.Invoke("add", args.buffer().view());
  ASSERT_TRUE(reply.ok()) << reply.status();
  cdr::Decoder dec = reply->MakeDecoder();
  EXPECT_EQ(*dec.GetLong(), 42);
}

// Cancel during connect: clients open transport channels and abandon them
// immediately — some before invoking, some racing the server's accept.
TEST_P(ConnectionChurnTest, AbandonedConnects) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::atomic<int> open_failures{0};
  {
    std::vector<Thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t](std::stop_token) {
        ORB client(net_.get(), "aborter-" + std::to_string(t));
        for (int i = 0; i < kRounds; ++i) {
          auto channel = client.OpenChannel(ref_, {});
          if (!channel.ok()) {
            // Da CaPo admission may refuse under storm; that is churn too.
            ++open_failures;
            continue;
          }
          if (i % 2 == 0) {
            (*channel)->Close();  // explicit abort before any byte
          }
          // Odd rounds: just drop the channel (destructor closes).
        }
      });
    }
  }  // joins

  // The server shrugs the churn off and still serves a real client.
  ORB client(net_.get(), "post-abort");
  Stub stub(&client, ref_);
  cdr::Encoder args = stub.MakeArgsEncoder();
  args.PutLong(1);
  args.PutLong(2);
  auto reply = stub.Invoke("add", args.buffer().view());
  ASSERT_TRUE(reply.ok()) << reply.status();
}

// Shutdown with live, active connections: the barrier sequence (managers,
// accept regs, per-connection close, pool) must terminate promptly even
// while clients are mid-invocation, and the close must reach the clients:
// each one's in-flight call ends in a CORBA exception soon after Shutdown
// returns, instead of waiting out the invocation timeout.
TEST_P(ConnectionChurnTest, ShutdownUnderLoad) {
  constexpr int kClients = 4;
  constexpr Duration kCloseReachesClient = milliseconds(500);
  std::array<Status, kClients> outcome;
  std::array<TimePoint, kClients> ended{};
  std::vector<Thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t](std::stop_token) {
      ORB client(net_.get(), "load-" + std::to_string(t));
      Stub stub(&client, ref_);
      for (;;) {
        cdr::Encoder args = stub.MakeArgsEncoder();
        args.PutLong(t);
        args.PutLong(t);
        auto reply = stub.Invoke("add", args.buffer().view());
        if (!reply.ok()) {
          outcome[t] = reply.status();
          ended[t] = Now();
          return;
        }
      }
    });
  }
  // Let the load build, then yank the server out from under it.
  std::this_thread::sleep_for(milliseconds(50));
  const Stopwatch timer;
  server_->Shutdown();
  EXPECT_LT(timer.Elapsed(), seconds(30));
  const TimePoint shutdown_done = Now();
  for (auto& c : clients) c.join();
  for (int t = 0; t < kClients; ++t) {
    EXPECT_FALSE(outcome[t].ok()) << "client " << t;
    EXPECT_NE(outcome[t].code(), ErrorCode::kDeadlineExceeded)
        << "client " << t << " waited out its call: " << outcome[t];
    EXPECT_LE(ended[t] - shutdown_done, kCloseReachesClient)
        << "client " << t << " ended "
        << ToMillis(ended[t] - shutdown_done) << " ms after Shutdown: "
        << outcome[t];
  }
}

// Shutdown while a client has stopped reading its replies. On TCP the
// replies fill the 4 MiB receive window, so upcalls wait mid-reply (up to
// the channel's 10 s window-stall limit) and the connection's reactor
// drain waits behind them. Teardown must not wait on that peer: each
// channel closes before anything else, which fails the waiting writes at
// once, so Shutdown stays well inside the stall limit.
TEST_P(ConnectionChurnTest, ShutdownWithStalledClient) {
  ORB client(net_.get(), "stalled");
  auto channel = client.OpenChannel(ref_, {});
  ASSERT_TRUE(channel.ok()) << channel.status();
  // 160 echoes of 32 KiB: 5 MiB of replies that nobody reads.
  constexpr int kRequests = 160;
  const std::string payload(32 * 1024, 'x');
  Thread sender([&](std::stop_token) {
    for (int i = 0; i < kRequests; ++i) {
      cdr::Encoder args;
      args.PutString(payload);
      giop::RequestHeader header;
      header.request_id = static_cast<corba::ULong>(i + 1);
      header.object_key = ref_.object_key;
      header.operation = "echo";
      if (!(*channel)
               ->SendMessage(giop::BuildRequest(giop::kGiop10, header,
                                                args.buffer().view())
                                 .view())
               .ok()) {
        return;
      }
    }
  });
  ASSERT_TRUE(WaitUntil([&] { return servant_->calls() >= 64; }));
  std::this_thread::sleep_for(milliseconds(100));  // let the replies pile up

  const Stopwatch timer;
  server_->Shutdown();
  EXPECT_LT(timer.Elapsed(), seconds(5));
  (*channel)->Close();  // releases the sender if its own writes are blocked
  sender.join();
}

// Sharded-table storm: adopt trains and finish connections from many
// threads at once while a reader sweeps the shards. TSan is the real
// judge here — the assertions only prove the table converges and the
// engine still serves once the storm passes.
TEST(ShardedConnectionTableTest, AdoptFinishStormKeepsTableConsistent) {
  sim::Network net(QuickLink());
  ORB server(&net, "server");
  auto ref = server.RegisterServant("calc", std::make_shared<CalcServant>(),
                                    Protocol::kTcp);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  constexpr int kBatch = 8;  // ids land on many shards per round
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  Thread reader([&](std::stop_token) {
    // Sweeps every shard lock while adopts insert and finishes erase.
    while (!stop.load()) {
      (void)server.connections_live();
      std::this_thread::sleep_for(microseconds(50));
    }
  });
  {
    std::vector<Thread> storm;
    storm.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      storm.emplace_back([&, t](std::stop_token) {
        ORB client(&net, "storm-" + std::to_string(t));
        for (int r = 0; r < kRounds; ++r) {
          std::vector<std::unique_ptr<transport::ComChannel>> batch;
          batch.reserve(kBatch);
          for (int i = 0; i < kBatch; ++i) {
            auto channel = client.OpenChannel(*ref, {});
            if (!channel.ok()) {
              ++failures;
              continue;
            }
            batch.push_back(std::move(*channel));
          }
          // Dropping the batch finishes the freshly adopted train.
        }
        // Each thread ends with a real invocation: the engine must still
        // serve after the churn it caused.
        Stub stub(&client, *ref);
        cdr::Encoder args = stub.MakeArgsEncoder();
        args.PutLong(t);
        args.PutLong(1);
        auto reply = stub.Invoke("add", args.buffer().view());
        if (!reply.ok()) ++failures;
      });
    }
  }  // joins the storm
  stop = true;
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  // Every client is gone, so every shard entry must drain.
  EXPECT_TRUE(WaitUntil([&] { return server.connections_live() == 0; }));
  server.Shutdown();
}

// Idle-timeout reaping: parked connections that never send a byte are
// closed by their reactor deadline, while a connection that keeps
// invoking sails past many timeout periods untouched.
TEST(IdleTimeoutTest, IdleConnectionsReapedWhileActiveOnesSurvive) {
  sim::Network net(QuickLink());
  ORB::Options options;
  options.idle_timeout = milliseconds(100);
  ORB server(&net, "server", options);
  auto ref = server.RegisterServant("calc", std::make_shared<CalcServant>(),
                                    Protocol::kTcp);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(server.Start().ok());

  ORB client(&net, "client");
  constexpr std::size_t kParked = 8;
  std::vector<std::unique_ptr<transport::ComChannel>> parked;
  parked.reserve(kParked);
  for (std::size_t i = 0; i < kParked; ++i) {
    auto channel = client.OpenChannel(*ref, {});
    ASSERT_TRUE(channel.ok());
    parked.push_back(std::move(*channel));  // never sends a byte
  }
  ASSERT_TRUE(WaitUntil(
      [&] { return server.connections_accepted() >= kParked; }));

  // The active connection invokes every ~20 ms — well inside the 100 ms
  // idle window — for several timeout periods.
  Stub stub(&client, *ref);
  const TimePoint end = Now() + milliseconds(400);
  while (Now() < end) {
    cdr::Encoder args = stub.MakeArgsEncoder();
    args.PutLong(20);
    args.PutLong(22);
    auto reply = stub.Invoke("add", args.buffer().view());
    ASSERT_TRUE(reply.ok()) << reply.status();
    std::this_thread::sleep_for(milliseconds(20));
  }

  // All parked connections hit their deadline; only the active one lives.
  EXPECT_TRUE(WaitUntil([&] { return server.connections_live() == 1; }));

  // And it still serves after its neighbours were reaped around it.
  cdr::Encoder args = stub.MakeArgsEncoder();
  args.PutLong(1);
  args.PutLong(2);
  auto reply = stub.Invoke("add", args.buffer().view());
  ASSERT_TRUE(reply.ok()) << reply.status();
  cdr::Decoder dec = reply->MakeDecoder();
  EXPECT_EQ(*dec.GetLong(), 3);
  server.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(AllTransports, ConnectionChurnTest,
                         ::testing::Values(Protocol::kTcp, Protocol::kIpc,
                                           Protocol::kDacapo),
                         [](const auto& info) {
                           return std::string(ProtocolName(info.param));
                         });

}  // namespace
}  // namespace cool::orb

// Shutdown races: sessions are torn down while packets are still in
// flight, from another thread, or concurrently with a reconfiguration.
// These are the teardown scenarios the concurrency model (DESIGN.md) has
// to survive; CI runs them under TSan. Every rig ends with a leak audit:
// however the teardown raced, no packet storage stays leased and no plane
// budget stays charged.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/thread.h"
#include "dacapo/session.h"

namespace cool::dacapo {
namespace {

sim::LinkProperties QuickLink() {
  sim::LinkProperties link;
  link.bandwidth_bps = 0;
  link.latency = microseconds(100);
  return link;
}

ModuleGraphSpec GraphOf(std::initializer_list<const char*> names) {
  ModuleGraphSpec spec;
  for (const char* n : names) spec.chain.push_back({n, {}});
  return spec;
}

std::vector<std::uint8_t> Msg(std::string_view s) {
  return {s.begin(), s.end()};
}

struct Rig {
  explicit Rig(std::uint16_t port) : net(QuickLink()), port_(port),
                                     acceptor(&net, {"server", port}) {
    EXPECT_TRUE(acceptor.Listen().ok());
  }

  // The sessions a round establishes are declared after its rig, so they
  // are closed and destroyed by the time this runs.
  ~Rig() {
    EXPECT_EQ(BufferPool::Default().stats().outstanding, leases_at_start)
        << "packet storage still leased after teardown";
    for (const auto& weak : budgets) {
      const auto budget = weak.lock();
      EXPECT_EQ(budget == nullptr ? 0 : budget->in_flight(), 0u)
          << "plane budget still charged after teardown";
    }
  }

  std::pair<std::unique_ptr<Session>, std::unique_ptr<Session>> Establish(
      ChannelOptions options) {
    Result<std::unique_ptr<Session>> server_side(
        Status(InternalError("unset")));
    Thread accept_thread([&] {
      server_side = acceptor.Accept(AppAModule::DeliveryMode::kQueue);
    });
    Connector connector(&net, "client");
    auto client_side = connector.Connect({"server", port_}, options);
    accept_thread.join();
    EXPECT_TRUE(client_side.ok()) << client_side.status();
    EXPECT_TRUE(server_side.ok()) << server_side.status();
    if (!client_side.ok() || !server_side.ok()) return {};
    budgets.push_back((*client_side)->packet_budget());
    budgets.push_back((*server_side)->packet_budget());
    return {std::move(client_side).value(), std::move(server_side).value()};
  }

  const std::uint64_t leases_at_start =
      BufferPool::Default().stats().outstanding;
  std::vector<std::weak_ptr<const PacketBudget>> budgets;
  sim::Network net;
  std::uint16_t port_;
  Acceptor acceptor;
};

// Receiver closes (then destroys) its session while the sender is still
// pumping packets through a full module graph.
TEST(SessionShutdownRaceTest, CloseWhilePeerIsSending) {
  for (int round = 0; round < 5; ++round) {
    Rig rig(6100);
    ChannelOptions options;
    options.graph = GraphOf({mechanisms::kSequencer, mechanisms::kCrc32});
    auto [client, server] = rig.Establish(options);
    ASSERT_NE(client, nullptr);

    std::atomic<bool> stop{false};
    Thread sender([&client, &stop](std::stop_token) {
      int i = 0;
      while (!stop.load()) {
        // Errors are expected once the peer is gone; sends must fail
        // cleanly, not crash or hang.
        if (!client->Send(Msg("frame" + std::to_string(i++))).ok()) return;
      }
    });

    // Let some traffic flow, then yank the receiving side mid-stream.
    (void)server->Receive(milliseconds(50));
    server->Close();
    server.reset();

    stop = true;
    sender.join();
    client->Close();
  }
}

// Both ends close simultaneously while both are sending.
TEST(SessionShutdownRaceTest, BothEndsCloseConcurrently) {
  for (int round = 0; round < 5; ++round) {
    Rig rig(6200);
    ChannelOptions options;
    options.graph = GraphOf({mechanisms::kCrc16});
    auto [client, server] = rig.Establish(options);
    ASSERT_NE(client, nullptr);

    std::vector<Thread> threads;
    for (Session* s : {client.get(), server.get()}) {
      threads.emplace_back([s] {
        for (int i = 0; i < 50; ++i) {
          if (!s->Send(Msg("x")).ok()) break;
        }
        s->Close();
      });
    }
    threads.clear();  // join
    client.reset();
    server.reset();
  }
}

// Close() racing Receive() on the same session from another thread: the
// blocked receive must wake with an error, never hang past its deadline.
TEST(SessionShutdownRaceTest, CloseWakesBlockedReceive) {
  Rig rig(6300);
  auto [client, server] = rig.Establish(ChannelOptions{});
  ASSERT_NE(client, nullptr);

  Thread closer([&server](std::stop_token) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server->Close();
  });
  const Stopwatch sw;
  auto got = server->Receive(seconds(30));
  EXPECT_FALSE(got.ok());
  EXPECT_LT(sw.Elapsed(), seconds(10));  // woke via Close, not deadline
  closer.join();
  client->Close();
}

// Reconfiguration racing shutdown: one thread drives Reconfigure while the
// peer tears the session down. Either outcome (reconfigured, or a clean
// error) is acceptable; lost packets are not the subject here — absence of
// data races and deadlocks is. Neither outcome may wait out the 10 s
// response deadline: the peer's close must end the handshake at once.
TEST(SessionShutdownRaceTest, ReconfigureRacesPeerShutdown) {
  for (int round = 0; round < 5; ++round) {
    const Stopwatch sw;
    Rig rig(6400);
    ChannelOptions options;
    options.graph = GraphOf({mechanisms::kCrc16});
    auto [client, server] = rig.Establish(options);
    ASSERT_NE(client, nullptr);

    Thread reconfigurer([&client](std::stop_token) {
      (void)client->Reconfigure(
          GraphOf({mechanisms::kXorCipher, mechanisms::kCrc32}));
    });
    Thread killer([&server](std::stop_token) {
      server->Close();
      server.reset();
    });
    reconfigurer.join();
    killer.join();
    client->Close();
    EXPECT_LT(sw.Elapsed(), seconds(2)) << "round " << round;
  }
}

}  // namespace
}  // namespace cool::dacapo

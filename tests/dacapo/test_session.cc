// Connection management integration: CONFIG handshake, data transfer over
// stream and datagram transports, NAK paths, reconfiguration, teardown.
// Every rig ends with a leak audit: once its sessions are closed and gone,
// no packet storage is still leased and no plane budget is still charged.
#include "common/thread.h"
#include "dacapo/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <string>
#include <thread>

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

struct Rig {
  explicit Rig(sim::LinkProperties link = QuickLink(),
               ResourceManager* resources = nullptr)
      : net(link), acceptor(&net, {"server", 6000}, resources) {
    EXPECT_TRUE(acceptor.Listen().ok());
  }

  // The sessions a test establishes are declared after its rig, so they
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

  // Runs Connect and Accept concurrently (both block on the handshake).
  std::pair<std::unique_ptr<Session>, std::unique_ptr<Session>> Establish(
      ChannelOptions options,
      AppAModule::DeliveryMode delivery = AppAModule::DeliveryMode::kQueue) {
    Result<std::unique_ptr<Session>> server_side(
        Status(InternalError("unset")));
    cool::Thread accept_thread(
        [&] { server_side = acceptor.Accept(delivery); });
    Connector connector(&net, "client");
    auto client_side = connector.Connect({"server", 6000}, options);
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
  Acceptor acceptor;
};

// Sanitizers add shadow memory and per-thread state, so they get a looser
// bound: still far below the 256 MiB the old per-plane pools cost.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr std::int64_t kIdleGrowthBound = std::int64_t{64} << 20;
#else
constexpr std::int64_t kIdleGrowthBound = std::int64_t{16} << 20;
#endif

std::int64_t VmRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoll(line.substr(6)) * 1024;
  }
  return 0;
}

std::vector<std::uint8_t> Msg(std::string_view s) {
  return {s.begin(), s.end()};
}

TEST(SessionTest, EmptyGraphOverStreamDelivers) {
  Rig rig;
  ChannelOptions options;
  auto [client, server] = rig.Establish(options);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(client->Send(Msg("hello dacapo")).ok());
  auto got = server->Receive(seconds(2));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, Msg("hello dacapo"));

  // And the reverse direction.
  ASSERT_TRUE(server->Send(Msg("yo")).ok());
  auto back = client->Receive(seconds(2));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, Msg("yo"));
}

// Packet memory is leased on demand: an established plane holds only the
// packets it carries. (Preallocated per-plane packet memory costs 32 MiB a
// plane, 256 MiB for these 8.)
TEST(SessionTest, IdlePlanesHoldNoPacketMemory) {
  Rig rig;
  const std::int64_t before = VmRssBytes();
  ASSERT_GT(before, 0);
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < 4; ++i) {
    auto [client, server] = rig.Establish(ChannelOptions{});
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->Send(Msg("ping")).ok());
    ASSERT_TRUE(server->Receive(seconds(2)).ok());
    sessions.push_back(std::move(client));
    sessions.push_back(std::move(server));
  }
  const std::int64_t grown = VmRssBytes() - before;
  EXPECT_LT(grown, kIdleGrowthBound) << "4 sessions grew RSS by "
                                     << (grown >> 20) << " MiB";
}

TEST(SessionTest, FullGraphOverStream) {
  Rig rig;
  ChannelOptions options;
  options.graph = GraphOf({mechanisms::kXorCipher, mechanisms::kSequencer,
                           mechanisms::kCrc32});
  auto [client, server] = rig.Establish(options);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(server->graph(), options.graph);  // peer built a matching stack

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client->Send(Msg("msg" + std::to_string(i))).ok());
  }
  for (int i = 0; i < 20; ++i) {
    auto got = server->Receive(seconds(2));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, Msg("msg" + std::to_string(i)));
  }
}

TEST(SessionTest, DatagramTransportWithArqSurvivesLoss) {
  sim::LinkProperties lossy = QuickLink();
  lossy.loss_rate = 0.2;
  Rig rig(lossy);
  ChannelOptions options;
  options.transport = ChannelOptions::Transport::kDatagram;
  MechanismSpec arq;
  arq.name = mechanisms::kGoBackN;
  arq.params["rto_us"] = 3000;
  options.graph.chain = {arq, {mechanisms::kCrc16, {}}};

  auto [client, server] = rig.Establish(options);
  ASSERT_NE(client, nullptr);

  constexpr int kCount = 30;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(client->Send(Msg("p" + std::to_string(i))).ok());
  }
  for (int i = 0; i < kCount; ++i) {
    auto got = server->Receive(seconds(10));
    ASSERT_TRUE(got.ok()) << "at " << i << ": " << got.status();
    EXPECT_EQ(*got, Msg("p" + std::to_string(i)));
  }
}

TEST(SessionTest, UnknownMechanismIsNakked) {
  Rig rig;
  ChannelOptions options;
  options.graph.chain.push_back({"warp_drive", {}});
  Result<std::unique_ptr<Session>> server_side(
      Status(InternalError("unset")));
  cool::Thread accept_thread([&] {
    server_side = rig.acceptor.Accept();
  });
  Connector connector(&rig.net, "client");
  auto client_side = connector.Connect({"server", 6000}, options);
  accept_thread.join();
  EXPECT_EQ(client_side.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_FALSE(server_side.ok());
}

TEST(SessionTest, AdmissionHookCanRefuse) {
  Rig rig;
  rig.acceptor.SetAdmissionHook([](const ModuleGraphSpec& spec) -> Status {
    if (!spec.chain.empty()) {
      return ResourceExhaustedError("server refuses configured graphs");
    }
    return Status::Ok();
  });

  ChannelOptions refused;
  refused.graph = GraphOf({mechanisms::kCrc16});
  Result<std::unique_ptr<Session>> server_side(
      Status(InternalError("unset")));
  cool::Thread accept_thread([&] { server_side = rig.acceptor.Accept(); });
  Connector connector(&rig.net, "client");
  auto client_side = connector.Connect({"server", 6000}, refused);
  accept_thread.join();
  EXPECT_EQ(client_side.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(client_side.status().message().find("refuses"),
            std::string::npos);
}

TEST(SessionTest, ResourceAdmissionRefusesWhenExhausted) {
  ResourceManager::Budget budget;
  budget.max_connections = 64;
  budget.packet_memory_bytes = 1;  // nothing fits
  ResourceManager resources(budget);
  Rig rig(QuickLink(), &resources);

  ChannelOptions options;
  Result<std::unique_ptr<Session>> server_side(
      Status(InternalError("unset")));
  cool::Thread accept_thread([&] { server_side = rig.acceptor.Accept(); });
  Connector connector(&rig.net, "client");
  auto client_side = connector.Connect({"server", 6000}, options);
  accept_thread.join();
  EXPECT_EQ(client_side.status().code(), ErrorCode::kResourceExhausted);
}

TEST(SessionTest, OversizedMessageRejectedLocally) {
  Rig rig;
  ChannelOptions options;
  options.packet_capacity = 128;
  auto [client, server] = rig.Establish(options);
  ASSERT_NE(client, nullptr);
  std::vector<std::uint8_t> big(256);
  EXPECT_EQ(client->Send(big).code(), ErrorCode::kInvalidArgument);
}

TEST(SessionTest, ReceiveTimesOutQuietChannel) {
  Rig rig;
  auto [client, server] = rig.Establish(ChannelOptions{});
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(server->Receive(milliseconds(50)).status().code(),
            ErrorCode::kDeadlineExceeded);
}

TEST(SessionTest, StatsCountTraffic) {
  Rig rig;
  auto [client, server] = rig.Establish(ChannelOptions{});
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Send(Msg("abcd")).ok());
  ASSERT_TRUE(server->Receive(seconds(2)).ok());
  EXPECT_EQ(client->stats().packets_tx, 1u);
  EXPECT_EQ(client->stats().bytes_tx, 4u);
  EXPECT_EQ(server->stats().packets_rx, 1u);
  EXPECT_EQ(server->stats().bytes_rx, 4u);
  client->ResetStats();
  EXPECT_EQ(client->stats().packets_tx, 0u);
}

TEST(SessionTest, ReconfigureSwapsGraphOnBothSides) {
  Rig rig;
  ChannelOptions options;
  options.graph = GraphOf({mechanisms::kCrc16});
  auto [client, server] = rig.Establish(options);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(client->Send(Msg("before")).ok());
  ASSERT_TRUE(server->Receive(seconds(2)).ok());

  const ModuleGraphSpec new_graph =
      GraphOf({mechanisms::kXorCipher, mechanisms::kCrc32});
  ASSERT_TRUE(client->Reconfigure(new_graph).ok());
  EXPECT_EQ(client->graph(), new_graph);

  // Traffic flows over the rebuilt plane (both sides must have swapped).
  ASSERT_TRUE(client->Send(Msg("after")).ok());
  auto got = server->Receive(seconds(2));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, Msg("after"));
  EXPECT_EQ(server->graph(), new_graph);
}

TEST(SessionTest, ReconfigureOnDatagramTransport) {
  Rig rig;
  ChannelOptions options;
  options.transport = ChannelOptions::Transport::kDatagram;
  options.graph = GraphOf({mechanisms::kGoBackN});
  auto [client, server] = rig.Establish(options);
  ASSERT_NE(client, nullptr);

  const ModuleGraphSpec new_graph =
      GraphOf({mechanisms::kGoBackN, mechanisms::kCrc32});
  ASSERT_TRUE(client->Reconfigure(new_graph).ok());
  ASSERT_TRUE(client->Send(Msg("post-reconf")).ok());
  auto got = server->Receive(seconds(5));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, Msg("post-reconf"));
}

TEST(SessionTest, ResponderCannotDriveReconfiguration) {
  Rig rig;
  auto [client, server] = rig.Establish(ChannelOptions{});
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(server->Reconfigure(GraphOf({mechanisms::kCrc16})).code(),
            ErrorCode::kFailedPrecondition);
}

TEST(SessionTest, CloseUnblocksPeerReceive) {
  Rig rig;
  auto [client, server] = rig.Establish(ChannelOptions{});
  ASSERT_NE(client, nullptr);
  cool::Thread receiver([&] {
    auto got = server->Receive(seconds(5));
    EXPECT_FALSE(got.ok());
  });
  std::this_thread::sleep_for(milliseconds(50));
  client->Close();
  receiver.join();
  // Peer learns about the close via signalling.
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(server->last_error().ok());
}

TEST(SessionTest, DescribeGraphReportsModuleStats) {
  sim::LinkProperties lossy = QuickLink();
  lossy.loss_rate = 0.3;
  Rig rig(lossy);
  ChannelOptions options;
  options.transport = ChannelOptions::Transport::kDatagram;
  MechanismSpec arq;
  arq.name = mechanisms::kIrq;
  arq.params["rto_us"] = 2000;
  options.graph.chain = {arq};

  auto [client, server] = rig.Establish(options);
  ASSERT_NE(client, nullptr);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client->Send(Msg("m" + std::to_string(i))).ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(server->Receive(seconds(10)).ok());
  }

  const std::vector<std::string> lines = client->DescribeGraph();
  // app_a, irq, t_datagram — top to bottom.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(lines[0].starts_with("app_a{tx=10")) << lines[0];
  EXPECT_TRUE(lines[1].starts_with("irq{retransmissions=")) << lines[1];
  EXPECT_EQ(lines[2], "t_datagram");
  // With 30% loss over 10 packets, at least one retransmission is all but
  // certain (seeded network: deterministic).
  EXPECT_NE(lines[1], "irq{retransmissions=0}");
}

TEST(SessionTest, SendAfterCloseFails) {
  Rig rig;
  auto [client, server] = rig.Establish(ChannelOptions{});
  ASSERT_NE(client, nullptr);
  client->Close();
  EXPECT_FALSE(client->Send(Msg("zombie")).ok());
}

// Regression: a short-quantum receive poller (the GIOP reply demultiplexer
// polls at 50 ms) must ride out plane swaps. The adoption grace window
// used to be clipped by the caller's deadline, so a swap landing near the
// end of a poll quantum surfaced as kUnavailable — which a demultiplexer
// rightly treats as a terminal connection error.
TEST(SessionTest, ShortTimeoutPollerSurvivesReconfiguration) {
  Rig rig;
  ChannelOptions options;
  options.graph = GraphOf({mechanisms::kCrc16});
  auto [client, server] = rig.Establish(options);
  ASSERT_NE(client, nullptr);

  std::atomic<bool> stop{false};
  std::atomic<bool> finished{false};
  Status bad = Status::Ok();
  Result<std::vector<std::uint8_t>> got(Status(InternalError("unset")));
  cool::Thread poller([&] {
    while (!stop.load()) {
      // Tighter than the GIOP demultiplexer's 50 ms: the swap must land
      // after this quantum's deadline to exercise the grace window.
      auto r = server->Receive(milliseconds(1));
      if (r.ok() || r.status().code() != ErrorCode::kDeadlineExceeded) {
        if (r.ok()) {
          got = std::move(r);
        } else {
          bad = r.status();
        }
        break;
      }
    }
    finished.store(true);
  });

  // Swap the responder's plane repeatedly under the poller.
  for (int i = 0; i < 3; ++i) {
    const ModuleGraphSpec g =
        (i % 2 == 0) ? GraphOf({mechanisms::kXorCipher, mechanisms::kCrc32})
                     : GraphOf({mechanisms::kCrc16});
    ASSERT_TRUE(client->Reconfigure(g).ok());
    std::this_thread::sleep_for(milliseconds(20));
  }
  ASSERT_TRUE(client->Send(Msg("post-reconf")).ok());

  const TimePoint deadline = Now() + seconds(5);
  while (!finished.load() && Now() < deadline) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  stop.store(true);
  poller.join();
  EXPECT_TRUE(bad.ok()) << "poller saw terminal error: " << bad;
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, Msg("post-reconf"));
}

// PR 8 companion to the poller test above: trains are sent under the plane
// reader lock, so a reconfiguration (writer) can never tear a train in
// half, and a Close() landing while the sender is mid-train must surface
// as a clean error on the next allocation instead of a hang or a leak.
TEST(SessionTest, TrainSendSurvivesPlaneSwapAndCloseMidStream) {
  Rig rig;
  ChannelOptions options;
  options.graph = GraphOf({mechanisms::kCrc32});
  auto [client, server] = rig.Establish(options);
  ASSERT_NE(client, nullptr);

  std::atomic<bool> stop{false};
  std::atomic<int> received{0};
  cool::Thread drain([&] {
    while (!stop.load()) {
      if (server->Receive(milliseconds(10)).ok()) received.fetch_add(1);
    }
  });

  std::atomic<int> trains_ok{0};
  std::atomic<bool> saw_clean_failure{false};
  cool::Thread sender([&] {
    const std::vector<std::uint8_t> payload(48, 0x77);
    for (;;) {
      Status s = client->SendTrainWith(
          64, [&](std::size_t) { return payload.size(); },
          [&](std::size_t, std::span<std::uint8_t> out) {
            std::copy(payload.begin(), payload.end(), out.begin());
            return Status::Ok();
          });
      if (!s.ok()) {
        saw_clean_failure.store(true);
        break;  // close landed: the train send fails cleanly, no hang
      }
      trains_ok.fetch_add(1);
      // Yield between trains so the reconfiguring writer can take the
      // plane lock (reader-preferring rwlocks can otherwise starve it).
      std::this_thread::sleep_for(milliseconds(1));
    }
  });

  // Swap the plane under the train sender: the writer lock serializes
  // against in-flight trains, so every accepted train is all-or-nothing.
  for (int i = 0; i < 3; ++i) {
    const ModuleGraphSpec g =
        (i % 2 == 0) ? GraphOf({mechanisms::kXorCipher, mechanisms::kCrc32})
                     : GraphOf({mechanisms::kCrc16});
    ASSERT_TRUE(client->Reconfigure(g).ok());
    std::this_thread::sleep_for(milliseconds(10));
  }

  // Let a few whole trains through after the last swap, then close while
  // the sender is (almost certainly) mid-train.
  const TimePoint deadline = Now() + seconds(5);
  while (trains_ok.load() < 3 && Now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_GE(trains_ok.load(), 3);
  client->Close();
  sender.join();  // must terminate: no deadlock on a torn train
  EXPECT_TRUE(saw_clean_failure.load());

  const TimePoint drain_deadline = Now() + seconds(2);
  while (received.load() == 0 && Now() < drain_deadline) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  stop.store(true);
  drain.join();
  EXPECT_GT(received.load(), 0);
}

}  // namespace
}  // namespace cool::dacapo

#include "sim/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/thread.h"

namespace cool::sim {
namespace {

LinkProperties FastLink() {
  LinkProperties link;
  link.bandwidth_bps = 0;  // no pacing: keep unit tests quick
  link.latency = Duration::zero();
  return link;
}

TEST(AddressTest, ToStringAndEquality) {
  Address a{"hostA", 80};
  EXPECT_EQ(a.ToString(), "hostA:80");
  EXPECT_EQ(a, (Address{"hostA", 80}));
  EXPECT_NE(a, (Address{"hostA", 81}));
  EXPECT_NE(a, (Address{"hostB", 80}));
}

TEST(NetworkTest, ConnectToNobodyIsRefused) {
  Network net(FastLink());
  auto socket = net.Connect("client", {"server", 9});
  EXPECT_EQ(socket.status().code(), ErrorCode::kUnavailable);
}

TEST(NetworkTest, ListenTwiceOnSameAddressFails) {
  Network net(FastLink());
  auto l1 = net.Listen({"server", 9});
  ASSERT_TRUE(l1.ok());
  EXPECT_EQ(net.Listen({"server", 9}).status().code(),
            ErrorCode::kAlreadyExists);
}

TEST(NetworkTest, AddressReusableAfterListenerDies) {
  Network net(FastLink());
  {
    auto l1 = net.Listen({"server", 9});
    ASSERT_TRUE(l1.ok());
  }
  EXPECT_TRUE(net.Listen({"server", 9}).ok());
}

TEST(NetworkTest, StreamRoundTrip) {
  Network net(FastLink());
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());

  cool::Thread server([&] {
    auto sock = (*listener)->Accept();
    ASSERT_TRUE(sock.ok());
    std::uint8_t buf[5];
    ASSERT_TRUE((*sock)->RecvExact(buf).ok());
    EXPECT_EQ(std::string(buf, buf + 5), "hello");
    ASSERT_TRUE((*sock)->Send(std::array<std::uint8_t, 2>{'o', 'k'}).ok());
  });

  auto client = net.Connect("client", {"server", 9});
  ASSERT_TRUE(client.ok());
  const std::string msg = "hello";
  ASSERT_TRUE((*client)
                  ->Send(std::span<const std::uint8_t>(
                      reinterpret_cast<const std::uint8_t*>(msg.data()),
                      msg.size()))
                  .ok());
  std::uint8_t reply[2];
  ASSERT_TRUE((*client)->RecvExact(reply).ok());
  EXPECT_EQ(reply[0], 'o');
  server.join();
}

TEST(NetworkTest, StreamDeliversLargeTransfersIntact) {
  Network net(FastLink());
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());

  constexpr std::size_t kTotal = 1 << 20;
  cool::Thread server([&] {
    auto sock = (*listener)->Accept();
    ASSERT_TRUE(sock.ok());
    std::vector<std::uint8_t> received(kTotal);
    ASSERT_TRUE((*sock)->RecvExact(received).ok());
    for (std::size_t i = 0; i < kTotal; ++i) {
      ASSERT_EQ(received[i], static_cast<std::uint8_t>(i * 31 + 7)) << i;
    }
  });

  auto client = net.Connect("client", {"server", 9});
  ASSERT_TRUE(client.ok());
  std::vector<std::uint8_t> data(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  // Send in odd-sized pieces to exercise chunk reassembly.
  std::size_t sent = 0;
  while (sent < kTotal) {
    const std::size_t n = std::min<std::size_t>(40961, kTotal - sent);
    ASSERT_TRUE((*client)->Send({data.data() + sent, n}).ok());
    sent += n;
  }
  server.join();
}

TEST(NetworkTest, CloseUnblocksReader) {
  Network net(FastLink());
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());
  auto client = net.Connect("client", {"server", 9});
  ASSERT_TRUE(client.ok());
  auto server_sock = (*listener)->Accept();
  ASSERT_TRUE(server_sock.ok());

  cool::Thread reader([&] {
    std::uint8_t buf[1];
    EXPECT_EQ((*server_sock)->Recv(buf).status().code(),
              ErrorCode::kUnavailable);
  });
  std::this_thread::sleep_for(milliseconds(20));
  (*client)->Close();
  reader.join();
}

// A bounded write on a full window fails with kDeadlineExceeded and
// enqueues nothing: the reader sees the stream as if it was never tried.
TEST(NetworkTest, WindowWaitBoundsAWriteOnAFullWindow) {
  Network net(FastLink());
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());
  auto client = net.Connect("client", {"server", 9});
  ASSERT_TRUE(client.ok());
  auto server_sock = (*listener)->Accept();
  ASSERT_TRUE(server_sock.ok());

  const std::vector<std::uint8_t> fill(4 * 1024 * 1024, 0x11);  // the window
  const std::span<const std::uint8_t> fill_part[] = {fill};
  ASSERT_TRUE((*client)->SendV(fill_part).ok());

  const std::uint8_t dropped[] = {0xDE, 0xAD};
  const std::span<const std::uint8_t> dropped_part[] = {dropped};
  const Stopwatch sw;
  EXPECT_EQ((*client)->SendV(dropped_part, milliseconds(30)).code(),
            ErrorCode::kDeadlineExceeded);
  EXPECT_GE(sw.Elapsed(), milliseconds(25));

  std::vector<std::uint8_t> got(fill.size());
  ASSERT_TRUE((*server_sock)->RecvExact(got).ok());
  EXPECT_EQ(got, fill);
  const std::uint8_t sent[] = {0x42, 0x43};
  const std::span<const std::uint8_t> sent_part[] = {sent};
  ASSERT_TRUE((*client)->SendV(sent_part, milliseconds(30)).ok());
  std::uint8_t next[2];
  ASSERT_TRUE((*server_sock)->RecvExact(next).ok());
  EXPECT_EQ(next[0], 0x42);
  EXPECT_EQ(next[1], 0x43);
}

TEST(NetworkTest, RecvForTimesOut) {
  Network net(FastLink());
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());
  auto client = net.Connect("client", {"server", 9});
  ASSERT_TRUE(client.ok());
  std::uint8_t buf[1];
  const Stopwatch sw;
  EXPECT_EQ((*client)->RecvFor(buf, milliseconds(40)).status().code(),
            ErrorCode::kDeadlineExceeded);
  EXPECT_GE(sw.Elapsed(), milliseconds(35));
}

TEST(NetworkTest, AcceptForTimesOut) {
  Network net(FastLink());
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());
  EXPECT_EQ((*listener)->AcceptFor(milliseconds(30)).status().code(),
            ErrorCode::kDeadlineExceeded);
}

TEST(NetworkTest, LatencyDelaysDelivery) {
  LinkProperties link;
  link.bandwidth_bps = 0;
  link.latency = milliseconds(30);
  Network net(link);
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());

  const Stopwatch total;
  auto client = net.Connect("client", {"server", 9});
  ASSERT_TRUE(client.ok());
  // Handshake alone costs one RTT = 2 * latency.
  EXPECT_GE(total.Elapsed(), milliseconds(55));

  auto server_sock = (*listener)->Accept();
  ASSERT_TRUE(server_sock.ok());
  const Stopwatch sw;
  ASSERT_TRUE((*client)->Send(std::array<std::uint8_t, 1>{42}).ok());
  std::uint8_t buf[1];
  ASSERT_TRUE((*server_sock)->RecvExact(buf).ok());
  EXPECT_GE(sw.Elapsed(), milliseconds(25));  // one-way latency
}

TEST(NetworkTest, BandwidthPacesThroughput) {
  LinkProperties link;
  link.bandwidth_bps = 8'000'000;  // 1 MB/s
  link.latency = Duration::zero();
  Network net(link);
  auto listener = net.Listen({"server", 9});
  ASSERT_TRUE(listener.ok());
  auto client = net.Connect("client", {"server", 9});
  ASSERT_TRUE(client.ok());
  auto server_sock = (*listener)->Accept();
  ASSERT_TRUE(server_sock.ok());

  cool::Thread drain([&] {
    std::vector<std::uint8_t> buf(200 * 1024);
    (void)(*server_sock)->RecvExact(buf);
  });
  std::vector<std::uint8_t> data(200 * 1024);  // 200 KiB at 1 MB/s ~ 200 ms
  const Stopwatch sw;
  ASSERT_TRUE((*client)->Send(data).ok());
  const double elapsed = sw.ElapsedSeconds();
  drain.join();
  EXPECT_GT(elapsed, 0.15);
  EXPECT_LT(elapsed, 0.5);
}

TEST(NetworkTest, LoopbackIsUnpaced) {
  LinkProperties slow;
  slow.bandwidth_bps = 1000;  // absurdly slow default...
  slow.latency = seconds(1);
  Network net(slow);
  auto listener = net.Listen({"same", 9});
  ASSERT_TRUE(listener.ok());
  const Stopwatch sw;
  auto client = net.Connect("same", {"same", 9});  // ...loopback ignores it
  ASSERT_TRUE(client.ok());
  EXPECT_LT(sw.Elapsed(), milliseconds(100));
}

TEST(NetworkTest, PerHostPairLinkOverride) {
  Network net(FastLink());
  LinkProperties slow;
  slow.latency = milliseconds(25);
  slow.bandwidth_bps = 0;
  net.SetLink("a", "b", slow);

  EXPECT_EQ(net.LinkBetween("a", "b").latency, milliseconds(25));
  EXPECT_EQ(net.LinkBetween("b", "a").latency, milliseconds(25));
  EXPECT_EQ(net.LinkBetween("a", "c").latency, Duration::zero());
}

TEST(DatagramTest, BasicSendReceive) {
  Network net(FastLink());
  auto rx = net.OpenPort({"server", 5});
  ASSERT_TRUE(rx.ok());
  auto tx = net.OpenPort({"client", 5});
  ASSERT_TRUE(tx.ok());

  ASSERT_TRUE(
      (*tx)->SendTo({"server", 5}, std::array<std::uint8_t, 3>{1, 2, 3}).ok());
  auto dgram = (*rx)->RecvFor(seconds(1));
  ASSERT_TRUE(dgram.has_value());
  EXPECT_EQ(dgram->payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(dgram->from, (Address{"client", 5}));
}

TEST(DatagramTest, OversizedDatagramRejected) {
  LinkProperties link = FastLink();
  link.mtu = 16;
  Network net(link);
  auto tx = net.OpenPort({"client", 5});
  ASSERT_TRUE(tx.ok());
  std::vector<std::uint8_t> big(17);
  EXPECT_EQ((*tx)->SendTo({"server", 5}, big).code(),
            ErrorCode::kInvalidArgument);
}

TEST(DatagramTest, SendToUnknownPortIsSilentlyDropped) {
  Network net(FastLink());
  auto tx = net.OpenPort({"client", 5});
  ASSERT_TRUE(tx.ok());
  EXPECT_TRUE(
      (*tx)->SendTo({"nowhere", 5}, std::array<std::uint8_t, 1>{1}).ok());
}

TEST(DatagramTest, LossDropsApproximatelyConfiguredFraction) {
  LinkProperties link = FastLink();
  link.loss_rate = 0.5;
  Network net(link, /*rng_seed=*/7);
  auto rx = net.OpenPort({"server", 5});
  ASSERT_TRUE(rx.ok());
  auto tx = net.OpenPort({"client", 5});
  ASSERT_TRUE(tx.ok());

  constexpr int kSent = 400;
  for (int i = 0; i < kSent; ++i) {
    ASSERT_TRUE(
        (*tx)->SendTo({"server", 5}, std::array<std::uint8_t, 1>{1}).ok());
  }
  int received = 0;
  while ((*rx)->RecvFor(milliseconds(50)).has_value()) ++received;
  EXPECT_GT(received, kSent / 4);
  EXPECT_LT(received, 3 * kSent / 4);
}

TEST(DatagramTest, RecvUnblocksOnClose) {
  Network net(FastLink());
  auto rx = net.OpenPort({"server", 5});
  ASSERT_TRUE(rx.ok());
  cool::Thread receiver([&] { EXPECT_EQ((*rx)->Recv(), std::nullopt); });
  std::this_thread::sleep_for(milliseconds(20));
  (*rx)->Close();
  receiver.join();
}

TEST(DatagramTest, PortReusableAfterClose) {
  Network net(FastLink());
  {
    auto p = net.OpenPort({"h", 5});
    ASSERT_TRUE(p.ok());
  }
  EXPECT_TRUE(net.OpenPort({"h", 5}).ok());
}

TEST(DatagramTest, DeterministicLossWithSameSeed) {
  auto run = [](std::uint64_t seed) {
    LinkProperties link;
    link.bandwidth_bps = 0;
    link.latency = Duration::zero();
    link.loss_rate = 0.3;
    Network net(link, seed);
    auto rx = net.OpenPort({"s", 5});
    auto tx = net.OpenPort({"c", 5});
    std::vector<bool> delivered;
    for (int i = 0; i < 100; ++i) {
      (void)(*tx)->SendTo({"s", 5}, std::array<std::uint8_t, 1>{1});
      delivered.push_back((*rx)->RecvFor(milliseconds(5)).has_value());
    }
    return delivered;
  };
  EXPECT_EQ(run(11), run(11));
}

TEST(DatagramTest, JitterCanReorder) {
  LinkProperties link;
  link.bandwidth_bps = 0;
  link.latency = milliseconds(1);
  link.jitter = milliseconds(20);
  Network net(link, /*rng_seed=*/3);
  auto rx = net.OpenPort({"s", 5});
  ASSERT_TRUE(rx.ok());
  auto tx = net.OpenPort({"c", 5});
  ASSERT_TRUE(tx.ok());

  for (std::uint8_t i = 0; i < 20; ++i) {
    ASSERT_TRUE((*tx)->SendTo({"s", 5}, std::array<std::uint8_t, 1>{i}).ok());
  }
  std::vector<std::uint8_t> order;
  for (int i = 0; i < 20; ++i) {
    auto d = (*rx)->RecvFor(milliseconds(500));
    ASSERT_TRUE(d.has_value());
    order.push_back(d->payload[0]);
  }
  // All 20 delivered exactly once...
  std::vector<std::uint8_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint8_t i = 0; i < 20; ++i) EXPECT_EQ(sorted[i], i);
  // ...and with 20ms jitter over 1ms latency, not in send order.
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
}

}  // namespace
}  // namespace cool::sim

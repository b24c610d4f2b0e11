// Concurrency stress for the multiplexed GIOP engines: N client threads ×
// M pipelined requests over ONE channel against a deliberately out-of-order,
// variable-latency servant; cancel-under-load; connection teardown with
// requests in flight; QoS priority classification. These run under TSan in
// CI (sanitizers matrix) — keep the sleeps short but real, so schedules
// actually interleave.

#include "giop/engine.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/thread.h"
#include "engine_rig.h"

namespace cool::giop {
namespace {

using testing::Key;
using testing::Rig;
using testing::Serving;

// Variable-latency echo: sleeps 0..3 ms keyed off the argument, so replies
// come back out of order whenever more than one worker runs. Echoes the
// argument so each caller can verify it got ITS reply, not someone else's.
GiopServer::DispatchResult SlowEcho(const RequestHeader& header,
                                    cdr::Decoder& args) {
  GiopServer::DispatchResult result;
  const auto value = args.GetLong();
  const corba::Long v = value.ok() ? *value : -1;
  std::this_thread::sleep_for(microseconds((v % 4) * 750));
  cdr::Encoder body(cdr::NativeOrder(), 0);
  body.PutLong(v);
  body.PutString(header.operation);
  result.body = std::move(body).TakeBuffer();
  return result;
}

TEST(GiopConcurrentTest, ThreadsTimesPipelineDepthOverOneChannel) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), rig.reactor, {});
  GiopServer server(rig.server_channel.get(), rig.pool, SlowEcho,
                    GiopServer::Options{});
  Serving serving(rig, server);

  constexpr int kThreads = 4;
  constexpr int kDepth = 8;
  std::atomic<int> failures{0};
  {
    std::vector<cool::Thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Each thread keeps kDepth requests in flight: issue the window
        // deferred, then poll oldest / refill until every reply checked.
        std::deque<std::pair<corba::ULong, corba::Long>> window;
        int issued = 0;
        constexpr int kTotal = 3 * kDepth;
        while (issued < kTotal || !window.empty()) {
          while (issued < kTotal && window.size() < kDepth) {
            const corba::Long arg = t * 1000 + issued;
            cdr::Encoder args = client.MakeArgsEncoder();
            args.PutLong(arg);
            auto id = client.InvokeDeferred(Key("obj"), "stress",
                                            args.buffer().view(), {});
            if (!id.ok()) {
              ++failures;
              return;
            }
            window.emplace_back(*id, arg);
            ++issued;
          }
          auto [id, expect] = window.front();
          window.pop_front();
          auto reply = client.PollReply(id, seconds(20));
          if (!reply.ok()) {
            ++failures;
            continue;
          }
          cdr::Decoder dec = reply->MakeResultsDecoder();
          const auto got = dec.GetLong();
          if (!got.ok() || *got != expect) ++failures;
        }
      });
    }
  }  // joins all client threads
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.requests_served(), kThreads * 3u * kDepth);
  EXPECT_EQ(client.in_flight(), 0u);
}

TEST(GiopConcurrentTest, SynchronousInvokesPipelineToo) {
  // Plain Invoke from many threads: no caller-visible pipelining API, but
  // the demux must still interleave them over the one channel.
  Rig rig;
  GiopClient client(rig.client_channel.get(), rig.reactor, {});
  GiopServer server(rig.server_channel.get(), rig.pool, SlowEcho,
                    GiopServer::Options{});
  Serving serving(rig, server);

  std::atomic<int> failures{0};
  {
    std::vector<cool::Thread> threads;
    for (int t = 0; t < 6; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 10; ++i) {
          const corba::Long arg = t * 100 + i;
          cdr::Encoder args = client.MakeArgsEncoder();
          args.PutLong(arg);
          auto reply =
              client.Invoke(Key("obj"), "sync", args.buffer().view(), {});
          if (!reply.ok()) {
            ++failures;
            continue;
          }
          cdr::Decoder dec = reply->MakeResultsDecoder();
          const auto got = dec.GetLong();
          if (!got.ok() || *got != arg) ++failures;
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.requests_served(), 60u);
}

TEST(GiopConcurrentTest, CancelUnderLoad) {
  Rig rig(2);
  GiopClient client(rig.client_channel.get(), rig.reactor, {});
  GiopServer server(rig.server_channel.get(), rig.pool, SlowEcho,
                    GiopServer::Options{});
  Serving serving(rig, server);

  constexpr int kRounds = 40;
  std::atomic<int> failures{0};
  {
    std::vector<cool::Thread> threads;
    // One thread streams normal invokes...
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        cdr::Encoder args = client.MakeArgsEncoder();
        args.PutLong(i);
        auto reply =
            client.Invoke(Key("obj"), "keep", args.buffer().view(), {});
        if (!reply.ok()) {
          ++failures;
          continue;
        }
        cdr::Decoder dec = reply->MakeResultsDecoder();
        const auto got = dec.GetLong();
        if (!got.ok() || *got != i) ++failures;
      }
    });
    // ...while another defers and immediately cancels. Every outcome is
    // legal (reply raced the cancel) EXCEPT a hang or a cross-wired reply.
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        cdr::Encoder args = client.MakeArgsEncoder();
        args.PutLong(1000 + i);
        auto id = client.InvokeDeferred(Key("obj"), "doomed",
                                        args.buffer().view(), {});
        if (!id.ok()) {
          ++failures;
          continue;
        }
        if (!client.Cancel(*id).ok()) ++failures;
        auto polled = client.PollReply(*id, milliseconds(100));
        if (polled.ok()) ++failures;  // cancelled id must never yield a reply
      }
    });
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(client.in_flight(), 0u);
}

TEST(GiopConcurrentTest, CloseConnectionWithRequestsInFlight) {
  Rig rig(2);
  GiopClient client(rig.client_channel.get(), rig.reactor, {});
  GiopServer server(rig.server_channel.get(), rig.pool, SlowEcho,
                    GiopServer::Options{});
  Serving serving(rig, server);

  std::atomic<int> finished{0};
  {
    std::vector<cool::Thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 20; ++i) {
          cdr::Encoder args = client.MakeArgsEncoder();
          args.PutLong(t * 100 + i);
          // Errors expected once the channel drops mid-burst; the only
          // failure mode is hanging past the timeout.
          (void)client.Invoke(Key("obj"), "op", args.buffer().view(), {},
                              seconds(5));
        }
        ++finished;
      });
    }
    std::this_thread::sleep_for(milliseconds(5));
    rig.client_channel->Close();
  }  // all caller threads must join without hanging
  EXPECT_EQ(finished.load(), 4);
  EXPECT_EQ(client.in_flight(), 0u);

  // The connection is terminal from the client's point of view.
  EXPECT_FALSE(client.Invoke(Key("obj"), "post-close", {}, {}).ok());
}

TEST(GiopConcurrentTest, HighPriorityOvertakesQueuedLowPriority) {
  // Single worker + a slow head job: while it runs, one low- and one
  // high-priority request queue up; the high one must be served first.
  Rig rig(1);
  GiopClient client(rig.client_channel.get(), rig.reactor, {});
  std::vector<std::string> order;
  Mutex order_mu;
  GiopServer server(
      rig.server_channel.get(), rig.pool,
      [&](const RequestHeader& header, cdr::Decoder&) {
        if (header.operation == "head") {
          // Hold the single worker long enough for both rivals to queue.
          std::this_thread::sleep_for(milliseconds(40));
        }
        {
          MutexLock lock(order_mu);
          order.push_back(header.operation);
        }
        return GiopServer::DispatchResult{};
      },
      GiopServer::Options{});
  Serving serving(rig, server);

  auto head = client.InvokeDeferred(Key("obj"), "head", {}, {});
  ASSERT_TRUE(head.ok());
  std::this_thread::sleep_for(milliseconds(5));  // head reaches the worker
  auto low = client.InvokeDeferred(
      Key("obj"), "low", {},
      {qos::QoSParameter{static_cast<corba::ULong>(qos::ParamType::kPriority),
                         10, qos::kUnbounded, qos::kUnbounded}});
  ASSERT_TRUE(low.ok());
  std::this_thread::sleep_for(milliseconds(5));  // low queued before high
  auto high = client.InvokeDeferred(
      Key("obj"), "high", {},
      {qos::QoSParameter{static_cast<corba::ULong>(qos::ParamType::kPriority),
                         200, qos::kUnbounded, qos::kUnbounded}});
  ASSERT_TRUE(high.ok());

  EXPECT_TRUE(client.PollReply(*head, seconds(5)).ok());
  EXPECT_TRUE(client.PollReply(*low, seconds(5)).ok());
  EXPECT_TRUE(client.PollReply(*high, seconds(5)).ok());

  {
    MutexLock lock(order_mu);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "head");
    EXPECT_EQ(order[1], "high");  // overtook the earlier-queued "low"
    EXPECT_EQ(order[2], "low");
  }
}

TEST(GiopConcurrentTest, CancelKillsQueuedButUnstartedDispatch) {
  // Single worker pinned by a slow head job; a queued request is cancelled
  // before the worker reaches it — it must never be dispatched.
  Rig rig(1);
  GiopClient client(rig.client_channel.get(), rig.reactor, {});
  std::atomic<bool> doomed_ran{false};
  GiopServer server(
      rig.server_channel.get(), rig.pool,
      [&](const RequestHeader& header, cdr::Decoder&) {
        if (header.operation == "head") {
          std::this_thread::sleep_for(milliseconds(30));
        }
        if (header.operation == "doomed") doomed_ran = true;
        return GiopServer::DispatchResult{};
      },
      GiopServer::Options{});
  Serving serving(rig, server);

  auto head = client.InvokeDeferred(Key("obj"), "head", {}, {});
  ASSERT_TRUE(head.ok());
  std::this_thread::sleep_for(milliseconds(5));
  auto doomed = client.InvokeDeferred(Key("obj"), "doomed", {}, {});
  ASSERT_TRUE(doomed.ok());
  std::this_thread::sleep_for(milliseconds(5));  // queued behind "head"
  ASSERT_TRUE(client.Cancel(*doomed).ok());

  EXPECT_TRUE(client.PollReply(*head, seconds(5)).ok());
  EXPECT_FALSE(doomed_ran.load());
  EXPECT_EQ(server.requests_cancelled(), 1u);
}

}  // namespace
}  // namespace cool::giop

// Shared rig of the GIOP engine tests: one TCP connection over a quick
// simulated link, the reactor both engines receive through, and the
// dispatch pool the server's upcalls run on — an ORB's wiring without the
// ORB.
#pragma once

#include <gtest/gtest.h>

#include <functional>

#include "common/mutex.h"
#include "common/thread.h"
#include "giop/engine.h"
#include "transport/reactor.h"
#include "transport/tcp_channel.h"

namespace cool::giop::testing {

inline sim::LinkProperties QuickLink() {
  sim::LinkProperties link;
  link.bandwidth_bps = 0;
  link.latency = microseconds(50);
  return link;
}

inline corba::OctetSeq Key(std::string_view s) { return {s.begin(), s.end()}; }

// Polls `done` until it holds or `timeout` passes; returns its last value.
inline bool Eventually(const std::function<bool()>& done,
                       Duration timeout = seconds(5)) {
  const TimePoint deadline = Now() + timeout;
  while (!done()) {
    if (Now() >= deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

struct Rig {
  explicit Rig(std::size_t dispatch_workers = 4)
      : net(QuickLink()),
        server_mgr(&net, {"server", 7300}),
        pool(dispatch_workers) {
    EXPECT_TRUE(server_mgr.Listen().ok());
    Result<std::unique_ptr<transport::ComChannel>> accepted(
        Status(InternalError("unset")));
    cool::Thread accept([&] { accepted = server_mgr.AcceptChannel(); });
    transport::TcpComManager client_mgr(&net, {"client", 7300});
    auto opened = client_mgr.OpenChannel({"server", 7300}, {});
    accept.join();
    EXPECT_TRUE(opened.ok());
    EXPECT_TRUE(accepted.ok());
    client_channel = std::move(opened).value();
    server_channel = std::move(accepted).value();
  }

  sim::Network net;
  transport::TcpComManager server_mgr;
  std::unique_ptr<transport::ComChannel> client_channel;
  std::unique_ptr<transport::ComChannel> server_channel;
  transport::Reactor reactor{2};
  DispatchPool pool;
};

// Serves `server` the way an ORB serves an accepted connection: a reactor
// registration on the server channel whose callback is GiopServer::Drain.
// Destruction removes the registration (a barrier), so declare it after
// the server it serves.
class Serving {
 public:
  Serving(Rig& rig, GiopServer& server) : reactor_(rig.reactor) {
    transport::ComChannel* channel = rig.server_channel.get();
    Result<std::uint64_t> reg = reactor_.Add(
        [channel](const sim::WaitSet& set, std::uint64_t token) {
          return channel->RegisterRx(set, token);
        },
        [this, &server] { Record(server.Drain()); });
    EXPECT_TRUE(reg.ok()) << reg.status();
    if (reg.ok()) reg_ = *reg;
  }
  ~Serving() { reactor_.Remove(reg_); }

  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  // The status that ended the connection, once Drain has returned one;
  // kDeadlineExceeded if the connection is still open after `timeout`.
  Status WaitEnded(Duration timeout = seconds(5)) {
    const TimePoint deadline = Now() + timeout;
    MutexLock lock(mu_);
    while (ended_.ok()) {
      if (!ended_cv_.WaitUntil(mu_, deadline)) break;
    }
    if (ended_.ok()) return DeadlineExceededError("connection still open");
    return ended_;
  }

 private:
  void Record(const Result<std::size_t>& drained) {
    if (drained.ok()) return;
    MutexLock lock(mu_);
    if (ended_.ok()) ended_ = drained.status();
    ended_cv_.NotifyAll();
  }

  transport::Reactor& reactor_;
  std::uint64_t reg_ = 0;
  Mutex mu_;
  CondVar ended_cv_;
  Status ended_ COOL_GUARDED_BY(mu_) = Status::Ok();
};

}  // namespace cool::giop::testing

// Fig. 7 alternative (ii): "a more Da CaPo centric approach, where message
// protocols are seen as ordinary Da CaPo modules performing this specific
// task. ... message protocols have to be wrapped into Da CaPo modules
// performing COOL specific functionality regarding formatting of incoming
// and outgoing messages, interacting with client side stubs, and
// interacting with server side object adapter to locate object
// implementations."
//
// The paper implemented alternative (i) (Da CaPo below the generic
// transport layer) and left (ii) as design discussion; we build both.
//
//  * GiopServerAModule — the server's GIOP engine as the top (A) module of
//    a Da CaPo chain: parses Requests arriving up the graph, upcalls the
//    object adapter, and pushes Replies back down. No generic transport
//    layer, no per-connection server thread: the module's own thread IS
//    the dispatcher.
//  * SessionComChannel — the client-side counterpart: a thin ComChannel
//    over a raw Da CaPo session (one GIOP message per packet), so the
//    ordinary GiopClient drives an alternative-(ii) server unchanged.
#pragma once

#include <atomic>

#include "common/mutex.h"
#include "common/thread.h"
#include "dacapo/module.h"
#include "dacapo/session.h"
#include "giop/message.h"
#include "orb/object_adapter.h"
#include "transport/com_channel.h"

namespace cool::orb {

class GiopServerAModule : public dacapo::Module {
 public:
  struct Options {
    bool accept_qos_extension = true;
    cdr::ByteOrder order = cdr::NativeOrder();
  };

  explicit GiopServerAModule(ObjectAdapter* adapter)
      : GiopServerAModule(adapter, Options()) {}
  GiopServerAModule(ObjectAdapter* adapter, Options options)
      : adapter_(adapter), options_(options) {}

  std::string_view name() const override { return "giop_a"; }

  void HandleData(dacapo::Direction dir, dacapo::PacketPtr pkt,
                  dacapo::ModulePort& port) override;

  std::uint64_t requests_served() const noexcept {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  void SendMessage(const ByteBuffer& msg, dacapo::ModulePort& port);
  // Assembles the Reply directly in a packet sized for it (header +
  // reply-header CDR + body appended in place) instead of staging a
  // full-message buffer.
  void SendReply(giop::Version version, const giop::ReplyHeader& reply,
                 std::span<const corba::Octet> body,
                 dacapo::ModulePort& port);
  void HandleRequest(const giop::ParsedMessage& msg,
                     dacapo::ModulePort& port);

  ObjectAdapter* adapter_;
  Options options_;
  // Atomic because tests read it while the module thread serves; dispatch
  // itself stays inline on the module thread — in alternative (ii) the
  // message protocol lives inside the Da CaPo graph, whose runtime already
  // serializes a module's upcalls (no worker pool here by design).
  std::atomic<std::uint64_t> requests_served_{0};
};

// Client-side: GIOP messages ride 1:1 in Da CaPo packets. Messages must
// fit one packet (no fragmentation — alternative (ii) keeps the message
// protocol inside the graph, so oversized messages are the application's
// problem, as in the original design sketch).
class SessionComChannel : public transport::ComChannel {
 public:
  explicit SessionComChannel(std::unique_ptr<dacapo::Session> session)
      : session_(std::move(session)) {}
  ~SessionComChannel() override;

  std::string_view protocol() const override { return "dacapo-alt2"; }

  Status SendMessage(std::span<const std::uint8_t> message) override {
    return session_->Send(message);
  }
  Result<ByteBuffer> ReceiveMessage(Duration timeout) override {
    COOL_ASSIGN_OR_RETURN(std::vector<std::uint8_t> payload,
                          session_->Receive(timeout));
    return ByteBuffer(std::move(payload));
  }
  Result<std::optional<ByteBuffer>> TryReceiveMessage() override {
    Result<dacapo::PacketPtr> got = session_->TryReceivePacket();
    if (!got.ok()) return got.status();  // kUnavailable once closed+drained
    if (!*got) return std::optional<ByteBuffer>(std::nullopt);
    return std::optional<ByteBuffer>(ByteBuffer((*got)->Data()));
  }
  bool RegisterRx(const sim::WaitSet& set, std::uint64_t token) override {
    session_->WatchRx(set, token);
    return true;
  }
  void Close() override { session_->Close(); }

  dacapo::Session& session() { return *session_; }

 private:
  std::unique_ptr<dacapo::Session> session_;
};

// An alternative-(ii) server endpoint: accepts Da CaPo connections whose
// accepted sessions are built with a GiopServerAModule as their layer-A
// module — the GIOP engine runs *inside* the module graph, on the module's
// own thread. There is no generic transport layer and no per-connection
// GIOP server thread on this path.
class Alt2Server {
 public:
  Alt2Server(sim::Network* net, sim::Address listen, ObjectAdapter* adapter);
  Alt2Server(sim::Network* net, sim::Address listen, ObjectAdapter* adapter,
             GiopServerAModule::Options options);
  ~Alt2Server();

  Status Start();
  void Shutdown();

  std::uint64_t connections() const;

 private:
  void AcceptLoop(std::stop_token stop);

  dacapo::Acceptor acceptor_;
  ObjectAdapter* adapter_;
  GiopServerAModule::Options options_;
  Thread accept_thread_;

  mutable Mutex mu_{LockRank::kOrb, "orb::Alt2Server::mu_"};
  std::vector<std::unique_ptr<dacapo::Session>> sessions_
      COOL_GUARDED_BY(mu_);
  std::uint64_t connections_ COOL_GUARDED_BY(mu_) = 0;
  std::atomic<bool> shutdown_{false};
};

}  // namespace cool::orb

// The ORB core: ties the object adapter, the GIOP message layer and the
// three transports (TCP, IPC, Da CaPo) together on one endsystem, exactly
// the component stack of the paper's Fig. 1:
//
//     Client | Object Impl.
//     Stubs  | Skeletons
//          Object Adapter            (client AND server side — colocation)
//     Generic Message Protocol Layer (GIOP 1.0 / GIOP 9.9 QoS extension)
//     Generic Transport Protocol Layer
//     TCP/IP | Chorus IPC | Da CaPo
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "dacapo/config_manager.h"
#include "dacapo/resource_manager.h"
#include "giop/dispatch_pool.h"
#include "giop/engine.h"
#include "orb/object_adapter.h"
#include "orb/object_ref.h"
#include "transport/dacapo_channel.h"
#include "transport/ipc_channel.h"
#include "transport/reactor.h"
#include "transport/tcp_channel.h"

namespace cool::orb {

class ORB {
 public:
  struct Options {
    // Server side accepts GIOP 9.9; client side emits it for QoS-bearing
    // invocations. Off = unmodified COOL (for the response-time baseline
    // and backwards-compatibility tests).
    bool enable_qos_extension = true;
    // What the local Da CaPo believes about the network (fed to the
    // configuration manager and the transport capability).
    dacapo::NetworkEstimate estimate{};
    std::uint16_t tcp_port = 7001;
    std::uint16_t ipc_port = 7002;
    std::uint16_t dacapo_port = 7003;
    corba::OctetSeq principal{};
    // Optional server-side resource admission for Da CaPo connections.
    dacapo::ResourceManager* resources = nullptr;
    // Size (>= 1) of the ORB-wide servant dispatch pool shared by every
    // connection, built by Start().
    std::size_t giop_worker_threads = giop::DefaultWorkerThreads();
    // CoDel AQM on the per-binding dispatch queues. Shed dispatches surface
    // as TRANSIENT at the client — an explicit policy opt-in.
    bool codel_enabled = false;
    Duration codel_target = milliseconds(5);
    Duration codel_interval = milliseconds(100);
    // Reactor worker loops carrying all connection I/O (server reads,
    // accepts, client reply demux); 0 = one per hardware thread. A worker's
    // thread starts with its first registration, and the thread count is
    // flat in the number of connections and bindings.
    unsigned reactor_threads = 0;
    // Close accepted connections that carried no inbound traffic for this
    // long (zero = never). Deadlines ride the reactor's lazily-cancelled
    // timer heap, so 100k parked connections cost no scanning — each holds
    // at most one pending heap entry.
    Duration idle_timeout = Duration::zero();
  };

  ORB(sim::Network* net, std::string host);
  ORB(sim::Network* net, std::string host, Options options);
  ~ORB();

  ORB(const ORB&) = delete;
  ORB& operator=(const ORB&) = delete;

  const std::string& host() const noexcept { return host_; }
  const Options& options() const noexcept { return options_; }
  ObjectAdapter& adapter() noexcept { return adapter_; }
  sim::Network* network() noexcept { return net_; }

  // --- server side ---------------------------------------------------------
  // Activates `servant` and returns a reference clients can bind to over
  // `preferred` transport.
  Result<ObjectRef> RegisterServant(const std::string& name,
                                    std::shared_ptr<Servant> servant,
                                    Protocol preferred = Protocol::kTcp);

  // Builds the dispatch pool and starts listening + accepting on all three
  // transports. A client-only ORB never needs to call it.
  Status Start();
  void Shutdown();
  bool running() const noexcept { return running_; }

  // --- client-side plumbing (used by Stub) -----------------------------------
  // Opens a transport channel toward `ref` with unilateral QoS negotiation
  // (non-empty `qos` over a QoS-less transport fails before any byte is
  // sent, paper §4.3).
  Result<std::unique_ptr<transport::ComChannel>> OpenChannel(
      const ObjectRef& ref, const qos::QoSSpec& qos);

  // Colocation check: true when `ref` names an object active in this
  // ORB's adapter on this endsystem.
  bool IsLocal(const ObjectRef& ref) const;

  std::uint64_t connections_accepted() const noexcept {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  // Currently open accepted connections, summed across the shards.
  std::size_t connections_live() const;

  // The connection engine: every server connection and every client
  // binding (Stub) of this ORB receives through it. Stubs must therefore
  // not outlive their ORB.
  transport::Reactor& reactor() noexcept { return reactor_; }
  // The ORB's one QoS scheduler: per-band counters and sojourn
  // percentiles come from its StatsSnapshot().
  giop::DispatchPool* dispatch_pool() noexcept { return dispatch_pool_.get(); }

 private:
  // One accepted server-side connection, reactor-driven: the channel's
  // receive readiness feeds a callback that drains frames into the
  // GiopServer, whose upcalls run on the shared dispatch pool. The
  // registration's closure holds the Connection alive, so teardown is
  // naturally deferred past any in-flight callback.
  //
  // Sized for 100k-connection servers: the server is embedded (optional,
  // not unique_ptr — one allocation fewer per connection) and references
  // the ORB's shared immutable Options block; the idle-timeout fields are
  // only ever touched from this connection's own reactor callback, which
  // never runs concurrently with itself, so they need no lock.
  struct Connection {
    std::uint64_t id = 0;  // == its reactor registration
    std::unique_ptr<transport::ComChannel> channel;
    std::optional<giop::GiopServer> server;
    // Idle-timeout bookkeeping (reactor callback only, see above).
    TimePoint last_activity{};
    TimePoint armed_deadline{};
  };

  // The connection table is sharded so a 100k-connection churn storm does
  // not serialize every adopt/finish on one mutex; a connection's shard is
  // fixed by its id, and the batched adoption path takes each shard lock
  // once per accept train.
  static constexpr std::size_t kConnShards = 16;
  struct ConnShard {
    mutable Mutex mu{LockRank::kOrb, "orb::ORB::ConnShard::mu"};
    // PER_CONN_WAIVER: per-ORB table of connections (one map per shard),
    // not per-connection state.
    std::unordered_map<std::uint64_t, std::shared_ptr<Connection>> conns
        COOL_GUARDED_BY(mu);
  };

  ConnShard& ShardFor(std::uint64_t id) const noexcept {
    return conn_shards_[id % kConnShards];
  }

  // Reactor accept callback: drains pending channels off `manager` in
  // trains of up to kAcceptTrain, amortizing reactor registration and
  // shard locking over the whole burst.
  void DrainAccept(transport::ComManager* manager);
  // Adopts a train of accepted channels: builds the Connections, registers
  // their receive callbacks in one batch (AddBatch/Attach), publishes them
  // into the shards, and arms idle timers.
  void AdoptTrain(
      std::vector<std::unique_ptr<transport::ComChannel>> channels);
  // Reactor receive callback: GiopServer::Drain plus the idle-timeout
  // bookkeeping; tears the connection down on a terminal status or an
  // expired idle deadline.
  void DrainConnection(const std::shared_ptr<Connection>& conn);
  void FinishConnection(const std::shared_ptr<Connection>& conn);
  // Embeds the GIOP server (shared ORB config) into `conn`.
  void EmplaceServer(Connection& conn);

  sim::Network* net_;
  std::string host_;
  Options options_;
  ObjectAdapter adapter_;

  transport::TcpComManager tcp_;
  transport::IpcComManager ipc_;
  transport::DacapoComManager dacapo_;

  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_{false};

  // Declared before the connection state: destroyed after it, so a
  // Connection destructor can still detach from the pool, and reactor
  // teardown (which drops registration closures, i.e. Connection refs)
  // happens while the pool is alive.
  std::unique_ptr<giop::DispatchPool> dispatch_pool_;
  transport::Reactor reactor_;
  std::vector<std::uint64_t> accept_regs_;

  // One immutable GIOP server config shared by every accepted connection
  // (the per-GiopServer Options copy used to cost ~100 bytes × N conns).
  std::shared_ptr<const giop::GiopServer::Options> server_options_;

  mutable std::array<ConnShard, kConnShards> conn_shards_;
  std::atomic<std::uint64_t> connections_accepted_{0};
};

}  // namespace cool::orb

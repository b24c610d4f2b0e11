#include "orb/orb.h"

#include "common/deadlock.h"
#include "common/logging.h"

namespace cool::orb {

namespace {
// Upper bound on channels adopted per accept-train (one reactor wakeup can
// carry an arbitrary accept backlog; the cap bounds callback latency).
constexpr std::size_t kAcceptTrain = 64;
}  // namespace

ORB::ORB(sim::Network* net, std::string host)
    : ORB(net, std::move(host), Options{}) {}

ORB::ORB(sim::Network* net, std::string host, Options options)
    : net_(net),
      host_(std::move(host)),
      options_(std::move(options)),
      tcp_(net, sim::Address{host_, options_.tcp_port}),
      ipc_(net, sim::Address{host_, options_.ipc_port}),
      dacapo_(net, sim::Address{host_, options_.dacapo_port},
              options_.estimate, options_.resources),
      reactor_(options_.reactor_threads) {}

ORB::~ORB() { Shutdown(); }

Result<ObjectRef> ORB::RegisterServant(const std::string& name,
                                       std::shared_ptr<Servant> servant,
                                       Protocol preferred) {
  const std::string repo_id(servant->repository_id());
  COOL_ASSIGN_OR_RETURN(corba::OctetSeq key,
                        adapter_.Activate(name, std::move(servant)));
  ObjectRef ref;
  ref.protocol = preferred;
  switch (preferred) {
    case Protocol::kTcp:
      ref.endpoint = sim::Address{host_, options_.tcp_port};
      break;
    case Protocol::kIpc:
      ref.endpoint = sim::Address{host_, options_.ipc_port};
      break;
    case Protocol::kDacapo:
      ref.endpoint = sim::Address{host_, options_.dacapo_port};
      break;
  }
  ref.object_key = std::move(key);
  ref.repository_id = repo_id;
  return ref;
}

Status ORB::Start() {
  if (running_.exchange(true)) {
    return FailedPreconditionError("ORB already running");
  }
  {
    giop::DispatchPool::Options pool_options;
    pool_options.workers = options_.giop_worker_threads;
    pool_options.codel_enabled = options_.codel_enabled;
    pool_options.codel_target = options_.codel_target;
    pool_options.codel_interval = options_.codel_interval;
    dispatch_pool_ = std::make_unique<giop::DispatchPool>(pool_options);
  }

  // One immutable server config for every connection this ORB will accept.
  {
    giop::GiopServer::Options server_options;
    server_options.accept_qos_extension = options_.enable_qos_extension;
    server_options_ = std::make_shared<const giop::GiopServer::Options>(
        std::move(server_options));
  }

  COOL_RETURN_IF_ERROR(tcp_.Listen());
  COOL_RETURN_IF_ERROR(ipc_.Listen());
  COOL_RETURN_IF_ERROR(dacapo_.Listen());

  for (transport::ComManager* mgr :
       {static_cast<transport::ComManager*>(&tcp_),
        static_cast<transport::ComManager*>(&ipc_),
        static_cast<transport::ComManager*>(&dacapo_)}) {
    auto reg = reactor_.Add(
        [mgr](const sim::WaitSet& set, std::uint64_t token) {
          return mgr->RegisterAccept(set, token);
        },
        [this, mgr] { DrainAccept(mgr); });
    COOL_RETURN_IF_ERROR(reg.status());
    accept_regs_.push_back(*reg);
  }
  COOL_LOG(kInfo, "orb") << host_ << ": ORB running (tcp:"
                         << options_.tcp_port << " ipc:" << options_.ipc_port
                         << " dacapo:" << options_.dacapo_port << ", "
                         << reactor_.workers() << " reactor workers)";
  return Status::Ok();
}

void ORB::Shutdown() {
  if (shutdown_.exchange(true)) return;

  tcp_.Close();
  ipc_.Close();
  dacapo_.Close();
  // Barrier out the accept callbacks. No shard lock may be held here:
  // Remove() waits for a callback that may be blocked acquiring one. Once
  // these Removes return, no AdoptTrain is mid-flight, so the shard sweep
  // below observes every adopted connection.
  for (const std::uint64_t id : accept_regs_) reactor_.Remove(id);
  accept_regs_.clear();

  std::vector<std::shared_ptr<Connection>> conns;
  for (ConnShard& shard : conn_shards_) {
    MutexLock lock(shard.mu);
    for (auto& [id, conn] : shard.conns) conns.push_back(std::move(conn));
    shard.conns.clear();
  }
  for (auto& conn : conns) {
    // Close first so a mid-callback drain (and any upcall mid-reply) fails
    // fast instead of blocking; then barrier out the drain callback; then
    // detach the server from the shared pool. The channel's close is what
    // reaches the client: every transport carries it to the peer.
    conn->channel->Close();
    reactor_.Remove(conn->id);
    conn->server->Close();
  }
  if (dispatch_pool_ != nullptr) dispatch_pool_->Close();
  running_ = false;
}

void ORB::DrainAccept(transport::ComManager* manager) {
  std::vector<std::unique_ptr<transport::ComChannel>> train;
  for (;;) {
    if (shutdown_.load()) return;
    auto channel = manager->TryAcceptChannel();
    if (!channel.ok()) break;        // manager closed
    if (*channel == nullptr) break;  // nothing pending right now
    train.push_back(std::move(*channel));
    if (train.size() >= kAcceptTrain) {
      AdoptTrain(std::move(train));
      train.clear();
    }
  }
  if (!train.empty()) AdoptTrain(std::move(train));
}

void ORB::AdoptTrain(
    std::vector<std::unique_ptr<transport::ComChannel>> channels) {
  if (channels.empty()) return;
  if (shutdown_.load()) {
    for (auto& channel : channels) channel->Close();
    return;
  }

  const std::size_t n = channels.size();
  std::vector<std::shared_ptr<Connection>> conns;
  conns.reserve(n);
  std::vector<transport::Reactor::Callback> cbs;
  cbs.reserve(n);
  for (auto& channel : channels) {
    auto conn = std::make_shared<Connection>();
    conn->channel = std::move(channel);
    EmplaceServer(*conn);
    cbs.push_back([this, conn] { DrainConnection(conn); });
    conns.push_back(std::move(conn));
  }

  // Phase one: install the whole train's callbacks, one registration-map
  // lock per worker. Nothing fires until the matching Attach below, so the
  // per-connection bookkeeping (id, timers, shard entry) can be
  // published without racing the first readiness callback.
  const std::vector<std::uint64_t> ids = reactor_.AddBatch(std::move(cbs));
  const TimePoint now = Now();
  for (std::size_t i = 0; i < n; ++i) {
    conns[i]->id = ids[i];
    conns[i]->last_activity = now;
    conns[i]->armed_deadline = now + options_.idle_timeout;
  }
  // Shard-grouped publish: the train's ids are contiguous, so walking in
  // strides of kConnShards groups same-shard inserts under one lock each.
  for (std::size_t s = 0; s < kConnShards && s < n; ++s) {
    ConnShard& shard = ShardFor(ids[s]);
    MutexLock lock(shard.mu);
    for (std::size_t i = s; i < n; i += kConnShards) {
      shard.conns[ids[i]] = conns[i];
    }
  }
  connections_accepted_.fetch_add(n, std::memory_order_relaxed);

  // Phase two: bind each readiness source and post the immediate probe.
  for (std::size_t i = 0; i < n; ++i) {
    const std::shared_ptr<Connection>& conn = conns[i];
    const bool attached = reactor_.Attach(
        ids[i], [raw = conn->channel.get()](const sim::WaitSet& set,
                                            std::uint64_t token) {
          return raw->RegisterRx(set, token);
        });
    if (!attached) {
      // Attach already dropped the registration: nothing can drain it.
      FinishConnection(conn);
    } else if (options_.idle_timeout > Duration::zero()) {
      reactor_.ScheduleAt(ids[i], conn->armed_deadline);
    }
  }
}

void ORB::DrainConnection(const std::shared_ptr<Connection>& conn) {
  const Result<std::size_t> drained = conn->server->Drain();
  if (!drained.ok()) {
    // Clean CloseConnection, local shutdown, peer hangup or a transport
    // failure.
    COOL_LOG(kDebug, "orb") << host_
                            << ": connection ended: " << drained.status();
    FinishConnection(conn);
    return;
  }
  if (options_.idle_timeout <= Duration::zero()) return;

  // Idle-timeout bookkeeping. Safe without locks: this callback is the
  // only writer of these fields and never runs concurrently with itself
  // (reactor run-to-completion contract).
  const TimePoint now = Now();
  if (*drained > 0) {
    conn->last_activity = now;
  } else if (now - conn->last_activity >= options_.idle_timeout) {
    COOL_LOG(kDebug, "orb") << host_ << ": closing idle connection "
                            << conn->id;
    FinishConnection(conn);
    return;
  }
  // Lazy re-arm: only once the armed deadline has passed does a new heap
  // entry go in, so a busy connection keeps at most one pending timer
  // instead of one per received frame.
  if (now >= conn->armed_deadline) {
    conn->armed_deadline = conn->last_activity + options_.idle_timeout;
    reactor_.ScheduleAt(conn->id, conn->armed_deadline);
  }
}

void ORB::FinishConnection(const std::shared_ptr<Connection>& conn) {
  {
    ConnShard& shard = ShardFor(conn->id);
    MutexLock lock(shard.mu);
    shard.conns.erase(conn->id);
  }
  // Self-removal from inside the drain callback: unregisters without
  // waiting (idempotent against a concurrent Shutdown doing the same).
  reactor_.Remove(conn->id);
  // Bounded by design: server->Close() barriers this connection's in-flight
  // dispatch upcalls out of the shared pool (DetachRunner), a wait bounded
  // by the servant runtime on independent worker threads; it runs once per
  // connection close (DESIGN.md §11).
  deadlock::ScopedBlockingAllowed teardown_barrier;
  conn->channel->Close();
  conn->server->Close();
}

void ORB::EmplaceServer(Connection& conn) {
  conn.server.emplace(
      conn.channel.get(), *dispatch_pool_,
      [this](const giop::RequestHeader& header, cdr::Decoder& args) {
        return adapter_.Dispatch(header, args, cdr::NativeOrder());
      },
      server_options_);
  conn.server->SetLocator(
      [this](const corba::OctetSeq& key) { return adapter_.Exists(key); });
}

std::size_t ORB::connections_live() const {
  std::size_t total = 0;
  for (const ConnShard& shard : conn_shards_) {
    MutexLock lock(shard.mu);
    total += shard.conns.size();
  }
  return total;
}

Result<std::unique_ptr<transport::ComChannel>> ORB::OpenChannel(
    const ObjectRef& ref, const qos::QoSSpec& qos) {
  switch (ref.protocol) {
    case Protocol::kTcp:
      return tcp_.OpenChannel(ref.endpoint, qos);
    case Protocol::kIpc:
      return ipc_.OpenChannel(ref.endpoint, qos);
    case Protocol::kDacapo:
      return dacapo_.OpenChannel(ref.endpoint, qos);
  }
  return Status(InternalError("unknown protocol"));
}

bool ORB::IsLocal(const ObjectRef& ref) const {
  return ref.endpoint.host == host_ && adapter_.Exists(ref.object_key);
}

}  // namespace cool::orb

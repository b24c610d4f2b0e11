// Connection-scaling curve for the reactor-driven connection engine: ONE
// server ORB accepting 1 -> 100k simulated client connections. Most
// connections are parked (accepted, registered with the reactor, idle);
// a fixed active subset keeps invoking throughout, so the curve shows
// whether idle connections cost server threads, memory, or active-path
// throughput. With the old thread-per-channel engine the server thread
// count grew linearly with connections; with the reactor it must stay
// flat — the "threads" column is the acceptance number for that claim,
// and "B/conn" (RSS growth per parked connection) is the acceptance
// number for the per-connection memory diet.
//
// A second sweep covers the client side: one client ORB binds 1 -> 512
// orb::Stub bindings. Every binding's reply demux is a registration on
// that ORB's reactor, so the client's threads must stop growing once all
// of its reactor workers run.
//
// A third sweep prices an idle Da CaPo binding: one client ORB binds
// 1 -> 16 stubs over Da CaPo (a data plane at each end) and answers one
// call on each, and the RSS growth per binding is what the planes hold
// at rest. Packet storage is leased on demand, so that is a few threads'
// stacks and the chain state, not packet memory.
#include <cstdio>
#include <memory>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_util.h"
#include "common/thread.h"
#include "giop/engine.h"
#include "orb/orb.h"
#include "orb/stub.h"
#include "transport/reactor.h"
#include "transport/tcp_channel.h"

namespace {

using namespace cool;

sim::LinkProperties QuickLink() {
  sim::LinkProperties link;
  link.bandwidth_bps = 0;  // unconstrained: measure the engine, not the wire
  link.latency = microseconds(20);
  return link;
}

// add(long,long)->long, the minimal two-way upcall.
class AddServant : public orb::Servant {
 public:
  std::string_view repository_id() const override {
    return "IDL:bench/Add:1.0";
  }
  orb::DispatchOutcome Dispatch(std::string_view operation,
                                cdr::Decoder& args,
                                cdr::Encoder& out) override {
    if (operation != "add") {
      return orb::DispatchOutcome::Fail(UnsupportedError("unknown op"));
    }
    auto a = args.GetLong();
    auto b = args.GetLong();
    if (!a.ok() || !b.ok()) {
      return orb::DispatchOutcome::Fail(InvalidArgumentError("bad args"));
    }
    out.PutLong(*a + *b);
    return orb::DispatchOutcome::Ok();
  }
};

// Live thread count of this process (server + clients + harness): the
// flat-curve claim is that it does not grow with the connection count.
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

long ReadRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmRSS:\t%ld", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

// RSS with allocator caches returned to the kernel first, so successive
// measurement runs in one process do not inherit each other's freed-arena
// footprint and the delta reflects live per-connection state.
long SampleRssKb() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  return ReadRssKb();
}

struct Sample {
  double accept_ms = 0;        // opening + accepting all connections
  double accepts_per_sec = 0;  // conns / accept time
  double msgs_per_sec = 0;     // aggregate over the active subset
  double p50_us = 0;
  double p99_us = 0;
  int threads = -1;          // process thread count at steady state
  double bytes_per_conn = -1;  // RSS growth per parked connection
  double rss_mb = -1;          // absolute RSS with all connections parked
};

bool MeasureConns(std::size_t conns, Duration duration, Sample& out) {
  sim::Network net(QuickLink());
  orb::ORB server(&net, "server");
  auto ref = server.RegisterServant("add", std::make_shared<AddServant>(),
                                    orb::Protocol::kTcp);
  if (!ref.ok() || !server.Start().ok()) return false;

  // Open every connection from one client manager, then wait for the
  // server's reactor to have accepted and registered them all. The RSS
  // delta across this window, divided by the connection count, is the
  // marginal cost of one parked connection (client channel + both pipe
  // ends + server-side Connection, measured identically across PRs).
  const long rss_before_kb = SampleRssKb();
  transport::TcpComManager client_mgr(&net, sim::Address{"client", 7001});
  const Stopwatch setup;
  std::vector<std::unique_ptr<transport::ComChannel>> parked;
  parked.reserve(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    auto channel = client_mgr.OpenChannel(ref->endpoint, {});
    if (!channel.ok()) return false;
    parked.push_back(std::move(*channel));
  }
  while (server.connections_accepted() < conns) {
    if (setup.Elapsed() > seconds(120)) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  out.accept_ms = ToSeconds(setup.Elapsed()) * 1e3;
  out.accepts_per_sec =
      static_cast<double>(conns) / ToSeconds(setup.Elapsed());
  const long rss_parked_kb = SampleRssKb();
  if (rss_before_kb >= 0 && rss_parked_kb >= rss_before_kb) {
    out.bytes_per_conn = static_cast<double>(rss_parked_kb - rss_before_kb) *
                         1024.0 / static_cast<double>(conns);
    out.rss_mb = static_cast<double>(rss_parked_kb) / 1024.0;
  }

  // Fixed active subset: its size never varies with `conns`, so any
  // throughput droop at high connection counts is engine overhead, not a
  // heavier offered load. Reply demux rides a shared two-worker reactor —
  // client-side threads stay flat too.
  transport::Reactor client_reactor(2);
  const std::size_t active = conns < 8 ? conns : 8;
  std::vector<std::unique_ptr<giop::GiopClient>> clients;
  clients.reserve(active);
  for (std::size_t i = 0; i < active; ++i) {
    clients.push_back(std::make_unique<giop::GiopClient>(
        parked[i].get(), client_reactor, giop::GiopClient::Options{}));
  }

  std::atomic<std::uint64_t> total{0};
  std::atomic<int> steady_threads{-1};
  std::vector<std::vector<double>> lat(active);
  const Stopwatch sw;
  const TimePoint end = Now() + duration;
  {
    std::vector<cool::Thread> callers;
    callers.reserve(active);
    for (std::size_t i = 0; i < active; ++i) {
      callers.emplace_back([&, i] {
        giop::GiopClient& client = *clients[i];
        std::vector<double>& samples = lat[i];
        corba::Long seq = 0;
        while (Now() < end) {
          cdr::Encoder args = client.MakeArgsEncoder();
          args.PutLong(seq);
          args.PutLong(1);
          const Stopwatch one;
          auto reply = client.Invoke(ref->object_key, "add",
                                     args.buffer().view(), {});
          if (!reply.ok()) return;
          samples.push_back(ToSeconds(one.Elapsed()) * 1e6);
          ++seq;
          ++total;
        }
      });
    }
    // Sample the thread count mid-window, with callers, reactors, and the
    // dispatch pool all live.
    std::this_thread::sleep_for(duration / 2);
    steady_threads = ProcessThreads();
  }  // joins
  const double elapsed = ToSeconds(sw.Elapsed());

  out.msgs_per_sec = static_cast<double>(total.load()) / elapsed;
  out.threads = steady_threads.load();
  std::vector<double> merged;
  for (auto& v : lat) merged.insert(merged.end(), v.begin(), v.end());
  const bench::LatencyStats stats = bench::Summarize(std::move(merged));
  out.p50_us = stats.p50_us;
  out.p99_us = stats.p99_us;

  clients.clear();  // before the channels they invoke over
  for (auto& channel : parked) channel->Close();
  server.Shutdown();
  return total.load() > 0;
}

struct StubSample {
  int threads_before = -1;  // both ORBs up, no binding yet
  int threads_bound = -1;   // every stub bound and answered, all held
  unsigned client_workers = 0;
};

// One client ORB binds `bindings` TCP stubs to one server ORB and keeps
// them all bound.
bool MeasureStubBindings(std::size_t bindings, StubSample& out) {
  sim::Network net(QuickLink());
  // One server reactor worker, started by Start()'s accept registrations:
  // the growth measured below is then the client's alone.
  orb::ORB::Options server_options;
  server_options.reactor_threads = 1;
  orb::ORB server(&net, "server", server_options);
  auto ref = server.RegisterServant("add", std::make_shared<AddServant>(),
                                    orb::Protocol::kTcp);
  if (!ref.ok() || !server.Start().ok()) return false;
  orb::ORB client(&net, "client");
  out.client_workers = client.reactor().workers();
  out.threads_before = ProcessThreads();
  std::vector<std::unique_ptr<orb::Stub>> stubs;
  stubs.reserve(bindings);
  for (std::size_t i = 0; i < bindings; ++i) {
    stubs.push_back(std::make_unique<orb::Stub>(&client, *ref));
    cdr::Encoder args = stubs.back()->MakeArgsEncoder();
    args.PutLong(static_cast<corba::Long>(i));
    args.PutLong(1);
    if (!stubs.back()->Invoke("add", args.buffer().view()).ok()) return false;
  }
  out.threads_bound = ProcessThreads();
  stubs.clear();  // the ORB must outlive its stubs
  server.Shutdown();
  return true;
}

struct DacapoSample {
  double bytes_per_binding = -1;  // RSS growth per idle binding
  double rss_mb = -1;             // absolute RSS with all bindings held
  int threads = -1;
};

bool MeasureDacapoBindings(std::size_t bindings, DacapoSample& out) {
  sim::Network net(QuickLink());
  orb::ORB server(&net, "server");
  auto ref = server.RegisterServant("add", std::make_shared<AddServant>(),
                                    orb::Protocol::kDacapo);
  if (!ref.ok() || !server.Start().ok()) return false;
  orb::ORB client(&net, "client");
  const long rss_before_kb = SampleRssKb();
  std::vector<std::unique_ptr<orb::Stub>> stubs;
  stubs.reserve(bindings);
  for (std::size_t i = 0; i < bindings; ++i) {
    stubs.push_back(std::make_unique<orb::Stub>(&client, *ref));
    cdr::Encoder args = stubs.back()->MakeArgsEncoder();
    args.PutLong(static_cast<corba::Long>(i));
    args.PutLong(1);
    if (!stubs.back()->Invoke("add", args.buffer().view()).ok()) return false;
  }
  const long rss_bound_kb = SampleRssKb();
  if (rss_before_kb >= 0 && rss_bound_kb >= rss_before_kb) {
    out.bytes_per_binding =
        static_cast<double>(rss_bound_kb - rss_before_kb) * 1024.0 /
        static_cast<double>(bindings);
    out.rss_mb = static_cast<double>(rss_bound_kb) / 1024.0;
  }
  out.threads = ProcessThreads();
  stubs.clear();  // the ORB must outlive its stubs
  server.Shutdown();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = cool::bench::BenchArgs::Parse(argc, argv);
  std::vector<std::size_t> counts =
      args.smoke ? std::vector<std::size_t>{1, 10, 50}
                 : std::vector<std::size_t>{1, 10, 100, 1000, 10000, 100000};
  if (args.conns > 0) counts = {args.conns};
  const Duration duration =
      args.smoke ? cool::milliseconds(100) : cool::milliseconds(250);

  std::printf(
      "=== Connection scaling: one server ORB, 1 -> %zu connections ===\n"
      "parked connections idle on the reactor; 8 stay active; flat threads\n"
      "and flat B/conn are the connection engine's acceptance numbers%s\n\n",
      counts.back(), args.smoke ? " (smoke mode)" : "");

  std::vector<cool::bench::BenchRecord> records;
  cool::bench::Table table({"conns", "accept ms", "acc/s", "msgs/s", "p50 us",
                            "p99 us", "threads", "rss MB", "B/conn"});
  std::size_t base_conns = 0;
  int threads_at_base = -1;
  int threads_at_max = -1;
  for (const std::size_t conns : counts) {
    Sample s;
    if (!MeasureConns(conns, duration, s)) {
      std::fprintf(stderr, "measurement failed at %zu connections\n", conns);
      return 1;
    }
    // Baseline for the flat-curve claim: the first count whose active
    // subset is already saturated, so caller threads match across points.
    if (threads_at_base < 0 && conns >= 8) {
      base_conns = conns;
      threads_at_base = s.threads;
    }
    threads_at_max = s.threads;
    char name[32];
    std::snprintf(name, sizeof name, "tcp conns %zu", conns);
    table.AddRow({std::to_string(conns), cool::bench::Fmt("%.1f", s.accept_ms),
                  cool::bench::Fmt("%.0f", s.accepts_per_sec),
                  cool::bench::Fmt("%.0f", s.msgs_per_sec),
                  cool::bench::Fmt("%.1f", s.p50_us),
                  cool::bench::Fmt("%.1f", s.p99_us),
                  std::to_string(s.threads),
                  cool::bench::Fmt("%.1f", s.rss_mb),
                  cool::bench::Fmt("%.0f", s.bytes_per_conn)});
    cool::bench::BenchRecord rec;
    rec.name = name;
    rec.msgs_per_sec = s.msgs_per_sec;
    rec.p50_us = s.p50_us;
    rec.p99_us = s.p99_us;
    rec.threads = s.threads;
    rec.bytes_per_conn = s.bytes_per_conn;
    rec.rss_mb = s.rss_mb;
    rec.accepts_per_sec = s.accepts_per_sec;
    records.push_back(std::move(rec));
  }

  table.Print();
  std::printf(
      "\nshape check: threads at %zu conns (%d) vs at %zu (%d) — the delta\n"
      "must be ~0: accepted-but-idle connections are reactor registrations,\n"
      "not threads.\n",
      base_conns, threads_at_base, counts.back(), threads_at_max);

  cool::bench::Table stub_table(
      {"bindings", "threads before", "threads bound", "growth"});
  unsigned client_workers = 0;
  int max_growth = 0;
  for (const std::size_t bindings : {std::size_t{1}, std::size_t{8},
                                     std::size_t{64}, std::size_t{512}}) {
    StubSample s;
    if (!MeasureStubBindings(bindings, s)) {
      std::fprintf(stderr, "stub binding failed at %zu bindings\n",
                   bindings);
      return 1;
    }
    client_workers = s.client_workers;
    const int growth = s.threads_bound - s.threads_before;
    max_growth = growth > max_growth ? growth : max_growth;
    stub_table.AddRow({std::to_string(bindings),
                       std::to_string(s.threads_before),
                       std::to_string(s.threads_bound),
                       std::to_string(growth)});
    cool::bench::BenchRecord rec;
    rec.name = "stub bindings " + std::to_string(bindings);
    rec.threads = s.threads_bound;
    records.push_back(std::move(rec));
  }
  std::printf(
      "\n=== Client side: one client ORB, 1 -> 512 stub bindings ===\n");
  stub_table.Print();
  std::printf(
      "\nshape check: growth (max %d) must stay <= the client reactor's %u\n"
      "workers at every count: bindings are reactor registrations, not\n"
      "threads.\n",
      max_growth, client_workers);

  cool::bench::Table dacapo_table({"bindings", "rss MB", "B/binding",
                                   "threads"});
  for (const std::size_t bindings :
       {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    DacapoSample s;
    if (!MeasureDacapoBindings(bindings, s)) {
      std::fprintf(stderr, "dacapo binding failed at %zu bindings\n",
                   bindings);
      return 1;
    }
    dacapo_table.AddRow({std::to_string(bindings),
                         cool::bench::Fmt("%.1f", s.rss_mb),
                         cool::bench::Fmt("%.0f", s.bytes_per_binding),
                         std::to_string(s.threads)});
    cool::bench::BenchRecord rec;
    rec.name = "dacapo bindings " + std::to_string(bindings);
    rec.threads = s.threads;
    rec.bytes_per_conn = s.bytes_per_binding;
    rec.rss_mb = s.rss_mb;
    records.push_back(std::move(rec));
  }
  std::printf(
      "\n=== Idle Da CaPo bindings: one client ORB, 1 -> 16 bindings ===\n");
  dacapo_table.Print();
  std::printf(
      "\nB/binding is the RSS two idle data planes hold (client and server\n"
      "end): packet storage is leased per packet, so it holds none.\n");

  if (!args.json_path.empty() &&
      !cool::bench::WriteJson(args.json_path, records)) {
    return 1;
  }
  return 0;
}

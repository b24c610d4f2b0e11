// bench_orb: one workload of the ORB's end-to-end benchmark, in one process,
// on the zero-latency simulated fast link.
//
//   bench_orb --workload <ping|pipeline|bulk|qos_mix> --seed <n>
//             --duration <seconds> --json <result.json> [--trace]
//
// A run builds kWorlds worlds one after the other; setup_s is the median of
// their set-up times.
//
//  * untraced: each world is warmed up and then measured for
//    --duration / kWorlds seconds, and every end-to-end metric is the
//    median over the worlds. Each world's threads land on the CPUs afresh,
//    and on the fast link that placement alone can move a world's latency
//    by a third; the median keeps one unlucky placement from deciding the
//    run.
//  * --trace: only the last world carries load. 70% of --duration
//    alternates untraced and traced windows (the traced ones sample 1 call
//    in 16 into spans); the rest runs the layer peels (peel.h). Per-layer
//    metrics come from the spans, the peels and the process counters, and
//    the spans go to trace-<workload>.json beside the result.
//
// Every reply is checked. The result file holds every metric by name with
// its unit; benchmark/run.py turns it into the benchmark's report.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "peel.h"
#include "proc_stats.h"
#include "stats.h"
#include "workload.h"

namespace orbbench {
namespace {

constexpr int kWorlds = 9;
constexpr double kMaxWarmupS = 0.5;        // per world, untraced
constexpr double kMaxTracedWarmupS = 3.0;  // the traced world
constexpr double kTracedShare = 0.7;       // of --duration; the rest: peels
constexpr double kMaxSegmentS = 1.0;
constexpr Duration kSamplePeriod = cool::milliseconds(10);
// Calls per second per binding that the span memory is sized for.
constexpr double kMaxCallsPerSecond = 250'000;
// An open-loop world is invalid when its generator ran this late at p99,
// or when its victim backlog grew by more than this many calls.
constexpr double kMaxLateP99Us = 500;
constexpr std::uint64_t kMaxBacklogGrowth = 16;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double duration_s = 20;
  std::string json_path;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--duration" && has_value) {
      args.duration_s = std::strtod(argv[++i], nullptr);
    } else if (a == "--json" && has_value) {
      args.json_path = argv[++i];
    } else if (a == "--trace") {
      args.trace = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  return !args.workload.empty() && !args.json_path.empty() &&
         args.duration_s > 0;
}

Duration Secs(double s) {
  return std::chrono::duration_cast<Duration>(std::chrono::duration<double>(s));
}

// Process counters over the windows of one kind (untraced or traced).
struct WindowTotals {
  double seconds = 0;
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t allocs = 0;
};

// What the load did on one world, per window kind ([0] untraced, [1]
// traced), merged over the generator threads.
struct LoadResult {
  std::array<Histogram, 2> latency;
  std::array<Histogram, 2> late;
  std::array<std::uint64_t, 2> ops{};
  std::array<std::uint64_t, 2> bytes{};
  std::array<WindowTotals, 2> totals{};
  std::vector<std::uint64_t> outstanding;  // every kSamplePeriod
  long threads = -1;                       // mid-way through the first window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double peak_rss_mb = 0;  // of this world's set-up and load
};

// Builds one world and completes a checked call on each binding; null on
// failure. Each set-up starts from trimmed memory, so every one pays the
// same page faults, and the peak-RSS count restarts with it.
std::unique_ptr<World> SetUp(const WorkloadSpec& spec, const Payload& payload,
                             Tracer* tracer, SetupTimes& times,
                             std::vector<double>& setup_s) {
  if (!RestartPeakRss() && setup_s.empty()) {
    std::fprintf(stderr, "warning: cannot reset VmHWM; peak_rss_mb covers "
                         "every earlier world\n");
  }
  const TimePoint t0 = cool::Now();
  auto world = std::make_unique<World>(spec, payload, tracer);
  const Status s = world->Connect(times);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: set-up failed: %s\n", spec.name.c_str(),
                 s.ToString().c_str());
    return nullptr;
  }
  setup_s.push_back(cool::ToSeconds(cool::Now() - t0));
  return world;
}

// Runs the load on `world`: a warm-up, then each (phase, seconds) window
// of `plan` in turn.
LoadResult RunLoad(World& world, const Payload& payload, Tracer* tracer,
                   std::uint64_t seed, double warmup_s,
                   const std::vector<std::pair<Phase, double>>& plan) {
  LoadResult r;
  Load load(world, payload, tracer, seed);
  load.Start();
  std::this_thread::sleep_for(Secs(warmup_s));
  for (const auto& [phase, seconds] : plan) {
    load.SetPhase(phase);
    const ProcSample p0 = SampleProc();
    const std::uint64_t a0 = AllocCount();
    const TimePoint t0 = cool::Now();
    const TimePoint end = t0 + Secs(seconds);
    for (TimePoint now = t0; now < end; now = cool::Now()) {
      std::this_thread::sleep_for(std::min<Duration>(kSamplePeriod, end - now));
      r.outstanding.push_back(load.Outstanding());
      if (r.threads < 0 && cool::Now() - t0 >= Secs(seconds / 2)) {
        r.threads = ProcThreads();
      }
    }
    const ProcSample p1 = SampleProc();
    WindowTotals& w = r.totals[phase - kUntraced];
    w.seconds += cool::ToSeconds(cool::Now() - t0);
    w.allocs += AllocCount() - a0;
    w.user_s += p1.user_s - p0.user_s;
    w.sys_s += p1.sys_s - p0.sys_s;
    w.context_switches += p1.context_switches - p0.context_switches;
  }
  load.Stop();
  r.peak_rss_mb = PeakRssMb();
  for (const auto& st : load.stats()) {
    r.attempted += st->attempted;
    r.failed += st->failed;
    for (std::size_t k = 0; k < 2; ++k) {
      r.latency[k].Merge(st->window[k].latency_ns);
      r.late[k].Merge(st->window[k].late_ns);
      r.ops[k] += st->window[k].ops;
      r.bytes[k] += st->window[k].bytes;
    }
  }
  return r;
}

// Why an open-loop world's measurements cannot be trusted; empty if they
// can: the generator ran late, or the victim's backlog kept growing (the
// smallest count of the last quarter of samples is above the largest of
// the first quarter by more than kMaxBacklogGrowth).
std::string OpenLoopProblem(const LoadResult& r) {
  const double late_p99_us = r.late[0].Quantile(0.99) / 1e3;
  if (late_p99_us > kMaxLateP99Us) {
    return "generator lateness p99 " + std::to_string(late_p99_us) +
           " us > " + std::to_string(kMaxLateP99Us) + " us";
  }
  const std::vector<std::uint64_t>& o = r.outstanding;
  const std::size_t q = o.size() / 4;
  if (q > 0 && *std::min_element(o.end() - q, o.end()) >
                   *std::max_element(o.begin(), o.begin() + q) +
                       kMaxBacklogGrowth) {
    return "outstanding victim calls kept growing";
  }
  return "";
}

// One world's end-to-end metrics (and its CPU per call), from its
// untraced windows.
struct EndToEnd {
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  double lat_p999_us = 0;
  double lat_n = 0;
  double ops_per_s = 0;
  double goodput_mbps = 0;
  double cpu_us_per_op = 0;
  double peak_rss_mb = 0;

  explicit EndToEnd(const LoadResult& r) {
    const Histogram& lat = r.latency[0];
    const WindowTotals& t = r.totals[0];
    const auto ops = static_cast<double>(r.ops[0]);
    lat_p50_us = lat.Quantile(0.5) / 1e3;
    lat_p99_us = lat.Quantile(0.99) / 1e3;
    lat_p999_us = lat.Quantile(0.999) / 1e3;
    lat_n = static_cast<double>(lat.count());
    ops_per_s = t.seconds > 0 ? ops / t.seconds : 0;
    goodput_mbps =
        t.seconds > 0 ? static_cast<double>(r.bytes[0]) / t.seconds / 1e6 : 0;
    cpu_us_per_op = ops > 0 ? (t.user_s + t.sys_s) * 1e6 / ops : 0;
    peak_rss_mb = r.peak_rss_mb;
  }
};

// Median over the worlds of one end-to-end metric.
double MedianOver(const std::vector<EndToEnd>& worlds,
                  double EndToEnd::*metric) {
  std::vector<double> v;
  for (const EndToEnd& e : worlds) v.push_back(e.*metric);
  return Median(std::move(v));
}

// Minimal JSON writer for the result file: numbers keep all their digits.
class Json {
 public:
  void Open(const char* key = nullptr) {
    Key(key);
    out_ += '{';
    first_ = true;
  }
  void Close() {
    out_ += '}';
    first_ = false;
  }
  void Str(const char* key, const std::string& v) {
    Key(key);
    out_ += '"' + v + '"';
  }
  void Num(const char* key, double v) {
    Key(key);
    if (!std::isfinite(v)) {
      out_ += "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
  }
  void Bool(const char* key, bool v) {
    Key(key);
    out_ += v ? "true" : "false";
  }
  void Metric(const char* name, double value, const char* unit) {
    Open(name);
    Num("value", value);
    Str("unit", unit);
    Close();
  }
  const std::string& str() const { return out_; }

 private:
  void Key(const char* key) {
    if (!first_) out_ += ", ";
    first_ = false;
    if (key != nullptr) out_ += '"' + std::string(key) + "\": ";
  }
  std::string out_;
  bool first_ = true;
};

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

std::string TracePathBeside(const std::string& json_path,
                            const std::string& workload) {
  const std::size_t slash = json_path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "" : json_path.substr(0, slash + 1);
  return dir + "trace-" + workload + ".json";
}

bool WriteTrace(const std::string& path, const std::string& workload,
                const std::vector<Tracer::Span>& spans) {
  std::string out = "{\"workload\": \"" + workload +
                    "\", \"unit\": \"ns\", \"fields\": [\"binding\", "
                    "\"seq\", \"op\", \"due\", \"issue\", \"enter\", "
                    "\"exit\", \"ret\"],\n \"spans\": [";
  char buf[192];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n  [%u, %u, \"%s\", %lld, %lld, %lld, %lld, %lld]",
                  i == 0 ? "" : ",", s.binding, s.seq, OpName(s.op).c_str(),
                  static_cast<long long>(s.due),
                  static_cast<long long>(s.issue),
                  static_cast<long long>(s.enter),
                  static_cast<long long>(s.exit),
                  static_cast<long long>(s.ret));
    out += buf;
  }
  out += "]}\n";
  return WriteFile(path, out);
}

// One part of the measured calls' traced time, in microseconds, kept per
// operation: bulk's put and get have mirror-image request and reply legs,
// and the median of their mixture jumps between the two modes from run to
// run. P50 is therefore the call-weighted mean of the per-operation
// medians (the plain median when a workload has one operation).
class Part {
 public:
  void Add(Op op, std::int64_t ns) {
    by_op_[static_cast<std::size_t>(op)].push_back(static_cast<double>(ns) /
                                                   1e3);
  }
  double P50() const {
    double total = 0;
    double weighted = 0;
    for (const auto& v : by_op_) {
      total += static_cast<double>(v.size());
      if (!v.empty()) weighted += Median(v) * static_cast<double>(v.size());
    }
    return total > 0 ? weighted / total : 0;
  }
  // A tail quantile over every operation together.
  double Tail(double p) const {
    std::vector<double> all;
    for (const auto& v : by_op_) all.insert(all.end(), v.begin(), v.end());
    return Quantile(std::move(all), p);
  }

 private:
  std::array<std::vector<double>, 4> by_op_;
};

// Appends the per-layer metrics of the traced world and the self-time
// table run.py prints; writes the spans beside the result.
bool WritePerLayer(Json& j, const Args& args, const WorkloadSpec& spec,
                   const Tracer& tracer, const LoadResult& r,
                   const PeelResult& peel, const SetupTimes& setup_times) {
  const BindingSpec& measured = spec.bindings.front();
  const bool open_loop = measured.driver == Driver::kOpenLoop;
  const std::vector<Tracer::Span> spans = tracer.Join();
  // An open loop's latency runs from the due time, so the generator's
  // lateness is one of its parts.
  Part late, request, servant, reply, span_e2e;
  for (const Tracer::Span& s : spans) {
    if (!spec.bindings[s.binding].measured) continue;
    late.Add(s.op, s.issue - s.due);
    request.Add(s.op, s.enter - s.issue);
    servant.Add(s.op, s.exit - s.enter);
    reply.Add(s.op, s.ret - s.exit);
    span_e2e.Add(s.op, s.ret - (open_loop ? s.due : s.issue));
  }
  const double parts_p50 = (open_loop ? late.P50() : 0) + request.P50() +
                           servant.P50() + reply.P50();
  const double untraced_p50 = r.latency[0].Quantile(0.5) / 1e3;
  const double traced_p50 = r.latency[1].Quantile(0.5) / 1e3;
  const bool dacapo = measured.protocol == cool::orb::Protocol::kDacapo;
  const double rtt_p50 = dacapo ? peel.dacapo_rtt_p50_us : peel.tcp_rtt_p50_us;
  const double codec_us = (peel.encode_ns + peel.decode_ns +
                           peel.request_codec_ns + peel.reply_codec_ns) /
                          1e3;
  const WindowTotals& u = r.totals[0];
  const auto ops = static_cast<double>(r.ops[0]);
  auto per_op = [&](double v) { return ops > 0 ? v / ops : 0.0; };

  j.Metric("orb.request_leg_p50_us", request.P50(), "us");
  j.Metric("orb.request_leg_p99_us", request.Tail(0.99), "us");
  j.Metric("orb.reply_leg_p50_us", reply.P50(), "us");
  j.Metric("orb.reply_leg_p99_us", reply.Tail(0.99), "us");
  j.Metric("orb.servant_p50_us", servant.P50(), "us");
  j.Metric("orb.glue_p50_us", untraced_p50 - rtt_p50 - codec_us - servant.P50(),
           "us");
  j.Metric("orb.threads", static_cast<double>(r.threads), "count");
  j.Metric("orb.bind_ms", Median(setup_times.bind_ms), "ms");
  j.Metric("qos.set_qos_ms", Median(setup_times.set_qos_ms), "ms");
  j.Metric("cdr.encode_ns", peel.encode_ns, "ns");
  j.Metric("cdr.decode_ns", peel.decode_ns, "ns");
  j.Metric("giop.request_codec_ns", peel.request_codec_ns, "ns");
  j.Metric("giop.reply_codec_ns", peel.reply_codec_ns, "ns");
  j.Metric("transport.rtt_p50_us", rtt_p50, "us");
  j.Metric("transport.rtt_p99_us",
           dacapo ? peel.dacapo_rtt_p99_us : peel.tcp_rtt_p99_us, "us");
  j.Metric("dacapo.graph_overhead_us",
           peel.dacapo_rtt_p50_us - peel.tcp_rtt_p50_us, "us");
  j.Metric("common.allocs_per_op", per_op(static_cast<double>(u.allocs)),
           "count");
  j.Metric("proc.csw_per_op", per_op(static_cast<double>(u.context_switches)),
           "count");
  j.Metric("proc.sys_share",
           u.user_s + u.sys_s > 0 ? u.sys_s / (u.user_s + u.sys_s) : 0,
           "ratio");
  j.Metric("gen.late_p50_us", r.late[1].Quantile(0.5) / 1e3, "us");
  j.Metric("gen.late_p99_us", r.late[1].Quantile(0.99) / 1e3, "us");
  j.Metric("gen.max_outstanding",
           r.outstanding.empty()
               ? 0
               : static_cast<double>(*std::max_element(r.outstanding.begin(),
                                                       r.outstanding.end())),
           "count");
  j.Metric("trace.overhead_pct",
           untraced_p50 > 0 ? (traced_p50 - untraced_p50) / untraced_p50 * 100
                            : 0,
           "%");
  j.Close();

  // The self-time table: p50 of each part of the sampled calls' time, the
  // same calls' end-to-end p50 the parts should sum to, and the p50 of
  // every call in the traced windows.
  j.Open("self_time_p50_us");
  if (open_loop) j.Num("gen.late", late.P50());
  j.Num("orb.request_leg", request.P50());
  j.Num("orb.servant", servant.P50());
  j.Num("orb.reply_leg", reply.P50());
  j.Num("parts_sum", parts_p50);
  j.Num("sampled_lat_p50", span_e2e.P50());
  j.Num("traced_lat_p50", traced_p50);
  j.Close();
  j.Num("spans", static_cast<double>(spans.size()));
  j.Num("spans_dropped", static_cast<double>(tracer.dropped()));
  return WriteTrace(TracePathBeside(args.json_path, spec.name), spec.name,
                    spans);
}

int Run(const Args& args) {
  const std::optional<Workload> workload = WorkloadFromName(args.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec spec = SpecFor(*workload);
  const BindingSpec& measured = spec.bindings.front();
  const Payload payload(args.seed);
  const double duration_s = args.duration_s;
  const double windows_s = duration_s * kTracedShare;

  std::unique_ptr<Tracer> tracer;
  if (args.trace) {
    // Every binding may call at kMaxCallsPerSecond through the traced
    // half of the windows; 1 call in kTraceEvery leaves a span.
    const double traced_calls = windows_s / 2 * kMaxCallsPerSecond *
                                static_cast<double>(spec.bindings.size());
    tracer = std::make_unique<Tracer>(
        cool::Now(), static_cast<std::size_t>(traced_calls / kTraceEvery));
  }

  SetupTimes setup_times;
  std::vector<double> setup_s;
  std::vector<EndToEnd> worlds;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Open loop: worlds whose measurements cannot be trusted. Like every
  // metric, validity goes by the majority of the worlds.
  int invalid_worlds = 0;
  std::string problem;
  LoadResult traced;
  PeelResult peel;
  for (int i = 0; i < kWorlds; ++i) {
    std::unique_ptr<World> world =
        SetUp(spec, payload, tracer.get(), setup_times, setup_s);
    if (world == nullptr) return 1;
    if (args.trace && i + 1 < kWorlds) continue;  // set-up timing only

    std::vector<std::pair<Phase, double>> plan;
    double warmup_s = 0;
    if (!args.trace) {
      warmup_s = std::min(kMaxWarmupS, duration_s / kWorlds / 4);
      plan.emplace_back(kUntraced, duration_s / kWorlds);
    } else {
      warmup_s = std::min(kMaxTracedWarmupS, duration_s / 4);
      const double segment_s = std::min(kMaxSegmentS, windows_s / 4);
      const int segments = std::max(2, static_cast<int>(windows_s / segment_s));
      for (int k = 0; k < segments; ++k) {
        plan.emplace_back(k % 2 == 0 ? kUntraced : kTraced, segment_s);
      }
    }
    LoadResult r =
        RunLoad(*world, payload, tracer.get(), args.seed, warmup_s, plan);
    worlds.emplace_back(r);
    attempted += r.attempted;
    failed += r.failed;
    if (measured.driver == Driver::kOpenLoop) {
      const std::string world_problem = OpenLoopProblem(r);
      if (!world_problem.empty()) {
        ++invalid_worlds;
        if (problem.empty()) problem = world_problem;
      }
    }
    if (args.trace) {
      PeelInputs in;
      in.ops = measured.op == Op::kPut ? std::vector<Op>{Op::kPut, Op::kGet}
                                       : std::vector<Op>{measured.op};
      in.qos_params = measured.qos;
      if (measured.protocol == cool::orb::Protocol::kDacapo) {
        in.dacapo_spec = cool::qos::QoSSpec::Trusted(measured.qos);
      }
      in.object_key = world->object_key();
      Result<PeelResult> p =
          RunPeels(in, payload, Secs(duration_s - windows_s));
      if (!p.ok()) {
        std::fprintf(stderr, "%s: layer peel failed: %s\n", spec.name.c_str(),
                     p.status().ToString().c_str());
        return 1;
      }
      peel = *p;
      traced = std::move(r);
    }
  }

  double lat_n = 0;
  for (const EndToEnd& e : worlds) lat_n += e.lat_n;
  const bool valid =
      2 * static_cast<std::size_t>(invalid_worlds) < worlds.size();

  Json j;
  j.Open();
  j.Str("workload", spec.name);
  j.Num("seed", static_cast<double>(args.seed));
  j.Num("duration_s", duration_s);
  j.Bool("trace", args.trace);
  j.Num("attempted", static_cast<double>(attempted));
  j.Num("failed", static_cast<double>(failed));
  j.Num("worlds_measured", static_cast<double>(worlds.size()));
  j.Num("worlds_invalid", invalid_worlds);
  j.Bool("valid", valid);
  j.Str("invalid_reason", valid ? "" : problem);
  j.Open("metrics");
  j.Metric("setup_s", Median(setup_s), "s");
  j.Metric("lat_p50_us", MedianOver(worlds, &EndToEnd::lat_p50_us), "us");
  j.Metric("lat_p99_us", MedianOver(worlds, &EndToEnd::lat_p99_us), "us");
  j.Metric("lat_p999_us", MedianOver(worlds, &EndToEnd::lat_p999_us), "us");
  j.Metric("lat_n", lat_n, "count");
  j.Metric("ops_per_s", MedianOver(worlds, &EndToEnd::ops_per_s), "1/s");
  j.Metric("goodput_mbps", MedianOver(worlds, &EndToEnd::goodput_mbps),
           "MB/s");
  j.Metric("proc.cpu_us_per_op", MedianOver(worlds, &EndToEnd::cpu_us_per_op),
           "us");
  j.Metric("peak_rss_mb", MedianOver(worlds, &EndToEnd::peak_rss_mb), "MB");
  j.Metric("error_rate",
           attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0,
           "ratio");
  if (args.trace) {
    if (!WritePerLayer(j, args, spec, *tracer, traced, peel, setup_times)) {
      return 1;
    }
  } else {
    j.Close();
  }
  j.Close();
  return WriteFile(args.json_path, j.str() + "\n") ? 0 : 1;
}

}  // namespace
}  // namespace orbbench

int main(int argc, char** argv) {
  orbbench::Args args;
  if (!orbbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: bench_orb --workload <ping|pipeline|bulk|qos_mix> "
                 "--seed <n> --duration <seconds> --json <out> [--trace]\n");
    return 2;
  }
  return orbbench::Run(args);
}

// Adversarial fairness benchmark for the band scheduler of server dispatch
// (common/qos_sched.h, mounted in giop::DispatchPool): drives the pool with
// hostile traffic mixes and records Jain's fairness index plus per-band
// sojourn percentiles (p50/p99/p99.9).
//
// Scenarios:
//   dispatch_equal          N identical flooding bindings, equal weights —
//                           Jain over per-binding service counts (>= 0.9
//                           is the acceptance floor; DRR should land ~1).
//   dispatch_weighted       weights 4:2:1 — Jain over weight-normalized
//                           shares (1.0 = shares track weights exactly).
//   dispatch_flood_victim_hier one paced, well-behaved high-QoS binding vs
//                           a flooding binding in the SAME class. The
//                           victim's p99 sojourn is the tentpole metric:
//                           per-binding DRR isolates it from the flood.
//                           The flat-priority scan it replaced buried the
//                           victim behind the backlog; that scheduler is
//                           retired, and its figure from BENCH_PR9.json is
//                           printed beside the measured one.
//   dispatch_same_band_unequal the qos_mix shape: on 2 workers, a paced
//                           High-band weight-8 victim with ~5 µs upcalls
//                           against a High-band weight-3 flood with 200 µs
//                           upcalls and 16 jobs in flight. Fairness charged
//                           in servant time keeps the victim's p99 sojourn
//                           inside its 1 ms tier; charged in bytes, the
//                           flood's quantum covered its whole backlog.
//   dispatch_rate_cap       a token-bucket-capped binding vs an uncapped
//                           one — the cap must hold under pressure.
//
// The run exits non-zero when a DESIGN.md §13 floor fails: dispatch_equal
// and dispatch_weighted Jain >= 0.9, the flood victim's p99 at least 5x
// under the recorded flat-scan figure, and the same-band unequal victim's
// p99 sojourn at most 1000 µs. dispatch_rate_cap is reported, not
// checked: in a short run its 64 KiB burst alone exceeds the cap.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/thread.h"
#include "giop/dispatch_pool.h"
#include "qos/classify.h"

namespace cool::bench {
namespace {

giop::DispatchJob MakeJob(corba::ULong id) {
  giop::DispatchJob job;
  job.header.request_id = id;
  job.header.response_expected = false;
  job.msg.buffer = ByteBuffer(std::vector<std::uint8_t>(giop::kHeaderSize));
  job.args_offset = giop::kHeaderSize;
  return job;
}

void SpinFor(Duration d) {
  const TimePoint end = Now() + d;
  while (Now() < end) {
  }
}

// A binding: counts its completed upcalls and burns a fixed servant cost
// per job so the workers, not the producers, are the bottleneck.
class CountingRunner : public giop::DispatchRunner {
 public:
  explicit CountingRunner(Duration work) : work_(work) {}

  void RunDispatchJob(const giop::DispatchJob&) override {
    SpinFor(work_);
    done_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t done() const { return done_.load(std::memory_order_relaxed); }

 private:
  Duration work_;
  std::atomic<std::uint64_t> done_{0};
};

// The flood victim: every submitted job carries its submit timestamp, the
// upcall records offered-to-served latency.
class LatencyRunner : public giop::DispatchRunner {
 public:
  LatencyRunner(Duration work, std::size_t max_jobs)
      : work_(work), submit_at_(max_jobs), latency_us_(max_jobs) {}

  corba::ULong NextId() {
    const corba::ULong id = next_++;
    submit_at_[id] = Now();
    return id;
  }

  void RunDispatchJob(const giop::DispatchJob& job) override {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        Now() - submit_at_[job.header.request_id])
                        .count();
    latency_us_[job.header.request_id] = static_cast<double>(us);
    served_.fetch_add(1, std::memory_order_relaxed);
    SpinFor(work_);
  }

  std::vector<double> TakeLatencies() const {
    return {latency_us_.begin(), latency_us_.begin() + served_.load()};
  }

 private:
  Duration work_;
  corba::ULong next_ = 0;
  std::vector<TimePoint> submit_at_;
  // Indexed by request id: distinct slots, so concurrent upcalls of
  // different jobs never race.
  std::vector<double> latency_us_;
  std::atomic<std::size_t> served_{0};
};

struct FloodResult {
  LatencyStats victim;
  double victim_served = 0;
};

// The flood victim's p99 sojourn under the retired flat-priority scan, in
// this same scenario (BENCH_PR9.json, dispatch_flood_victim_flat).
constexpr double kFlatVictimP99Us = 33679.0;

// DESIGN.md §13 acceptance floors.
constexpr double kJainFloor = 0.9;
constexpr double kFloodGainFloor = 5.0;
// qos_mix's victim negotiates a 1000 µs bound (qos::RequireLatencyMicros).
constexpr double kSameBandVictimP99CeilingUs = 1000.0;

// A paced High-band victim against a flooding High-band aggressor.
struct FloodShape {
  std::size_t workers = 1;
  Duration flood_work = microseconds(20);
  std::uint32_t flood_weight = 1;
  // Flood jobs queued or running at once; 0 floods without limit.
  std::uint64_t flood_inflight = 0;
  Duration victim_work = microseconds(20);
  std::uint32_t victim_weight = 1;
};

FloodResult RunFloodScenario(const FloodShape& shape, Duration run_for) {
  giop::DispatchPool::Options options;
  options.workers = shape.workers;
  giop::DispatchPool pool(options);

  CountingRunner flooder(shape.flood_work);
  const std::uint64_t flooder_id = pool.AllocRunnerId();
  LatencyRunner victim(shape.victim_work, 1 << 20);
  const std::uint64_t victim_id = pool.AllocRunnerId();

  qos::SchedProfile flood_profile;
  flood_profile.band = qos::SchedProfile::Band::kHigh;
  flood_profile.weight = shape.flood_weight;
  qos::SchedProfile victim_profile = flood_profile;
  victim_profile.weight = shape.victim_weight;

  std::atomic<bool> stop{false};
  Thread flood_thread([&](std::stop_token) {
    corba::ULong id = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (shape.flood_inflight != 0 &&
          id - flooder.done() >= shape.flood_inflight) {
        std::this_thread::sleep_for(microseconds(20));
        continue;
      }
      if (!pool.Submit(&flooder, flooder_id, flood_profile, MakeJob(id++))) {
        return;
      }
    }
  });
  Thread victim_thread([&](std::stop_token) {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!pool.Submit(&victim, victim_id, victim_profile,
                       MakeJob(victim.NextId()))) {
        return;
      }
      std::this_thread::sleep_for(microseconds(500));
    }
  });

  std::this_thread::sleep_for(run_for);
  stop.store(true, std::memory_order_relaxed);
  pool.Close();  // wakes backpressured Submits, drains, joins workers
  flood_thread.join();
  victim_thread.join();

  FloodResult result;
  std::vector<double> lat = victim.TakeLatencies();
  result.victim_served = static_cast<double>(lat.size());
  result.victim = Summarize(std::move(lat));
  return result;
}

// `weights[i]` flooding bindings share the pool; returns per-binding
// service counts.
std::vector<double> RunShareScenario(const std::vector<std::uint32_t>& weights,
                                     const std::vector<std::uint64_t>& rates,
                                     Duration run_for,
                                     LatencyStats* class_sojourn) {
  giop::DispatchPool::Options options;
  options.workers = 2;
  // Each producer caps its own inflight below, keeping every flow's
  // backlog standing without ever tripping the pool-wide backpressure
  // gate — otherwise the Submit wakeup order, not the scheduler, would
  // set the shares.
  constexpr std::size_t kInflight = 1000;
  options.queue_capacity = weights.size() * (kInflight + 64);
  giop::DispatchPool pool(options);

  const Duration work = microseconds(10);
  std::vector<std::unique_ptr<CountingRunner>> runners;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    runners.push_back(std::make_unique<CountingRunner>(work));
    ids.push_back(pool.AllocRunnerId());
  }

  std::atomic<bool> stop{false};
  std::vector<Thread> producers;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    producers.emplace_back([&, i](std::stop_token) {
      qos::SchedProfile profile;
      profile.weight = weights[i];
      profile.rate_bytes_per_sec = rates[i];
      corba::ULong id = 0;
      std::uint64_t submitted = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (submitted - runners[i]->done() >= kInflight) {
          std::this_thread::sleep_for(microseconds(100));
          continue;
        }
        if (!pool.Submit(runners[i].get(), ids[i], profile, MakeJob(id++))) {
          return;
        }
        ++submitted;
      }
    });
  }

  std::this_thread::sleep_for(run_for);
  stop.store(true, std::memory_order_relaxed);
  // Harvest before Close(): the shutdown drain serves the backlog with
  // shaping and AQM bypassed, which would credit capped/light flows for
  // ~a full queue of free jobs and smear the steady-state percentiles.
  std::vector<double> counts;
  for (const auto& r : runners) {
    counts.push_back(static_cast<double>(r->done()));
  }
  if (class_sojourn != nullptr) {
    const auto stats = pool.StatsSnapshot();
    const auto& normal = stats[1];  // Normal band (all profiles above)
    class_sojourn->p50_us = static_cast<double>(normal.sojourn_p50_us);
    class_sojourn->p99_us = static_cast<double>(normal.sojourn_p99_us);
    class_sojourn->p999_us = static_cast<double>(normal.sojourn_p999_us);
  }
  pool.Close();
  for (auto& t : producers) t.join();
  return counts;
}

int Run(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  const Duration run_for = args.smoke ? milliseconds(250) : milliseconds(1500);
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(run_for)
          .count();

  std::vector<BenchRecord> records;
  Table table({"scenario", "jain", "p50us", "p99us", "p999us", "note"});
  double equal_jain = 0;
  double weighted_jain = 0;

  {  // --- equal-weight fairness across 8 flooding bindings ---
    LatencyStats sojourn;
    const std::vector<double> counts = RunShareScenario(
        std::vector<std::uint32_t>(8, 1), std::vector<std::uint64_t>(8, 0),
        run_for, &sojourn);
    double total = 0;
    for (double c : counts) total += c;
    BenchRecord r;
    r.name = "dispatch_equal";
    r.jain = JainIndex(counts);
    equal_jain = r.jain;
    r.msgs_per_sec = total / secs;
    r.p50_us = sojourn.p50_us;
    r.p99_us = sojourn.p99_us;
    r.p999_us = sojourn.p999_us;
    records.push_back(r);
    table.AddRow({r.name, Fmt("%.4f", r.jain), Fmt("%.0f", r.p50_us),
                  Fmt("%.0f", r.p99_us), Fmt("%.0f", r.p999_us),
                  Fmt("%.0f jobs/s", r.msgs_per_sec)});
  }

  {  // --- 4:2:1 weighted shares ---
    const std::vector<std::uint32_t> weights{4, 2, 1};
    const std::vector<double> counts = RunShareScenario(
        weights, std::vector<std::uint64_t>(weights.size(), 0), run_for,
        nullptr);
    std::vector<double> normalized;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      normalized.push_back(counts[i] / static_cast<double>(weights[i]));
    }
    BenchRecord r;
    r.name = "dispatch_weighted";
    r.jain = JainIndex(normalized);
    weighted_jain = r.jain;
    records.push_back(r);
    table.AddRow({r.name, Fmt("%.4f", r.jain), "-", "-", "-",
                  Fmt("%.2f:", counts[0] / counts[2]) +
                      Fmt("%.2f:1 (want 4:2:1)", counts[1] / counts[2])});
  }

  double hier_p99 = 0;
  {  // --- flood isolation ---
    // Sharp contention: one upcall lane, equal weights and upcalls.
    const FloodResult hier = RunFloodScenario(FloodShape{}, run_for);
    hier_p99 = hier.victim.p99_us;
    BenchRecord rh;
    rh.name = "dispatch_flood_victim_hier";
    rh.p50_us = hier.victim.p50_us;
    rh.p99_us = hier.victim.p99_us;
    rh.p999_us = hier.victim.p999_us;
    rh.msgs_per_sec = hier.victim_served / secs;
    records.push_back(rh);
    table.AddRow({rh.name, "-", Fmt("%.0f", rh.p50_us), Fmt("%.0f", rh.p99_us),
                  Fmt("%.0f", rh.p999_us),
                  Fmt("recorded flat/hier p99 = %.1fx",
                      kFlatVictimP99Us / hier_p99)});
  }

  double unequal_p99 = 0;
  {  // --- same band, unequal servant time: the qos_mix shape ---
    const FloodResult unequal = RunFloodScenario(
        FloodShape{.workers = 2,
                   .flood_work = microseconds(200),
                   .flood_weight = 3,
                   .flood_inflight = 16,
                   .victim_work = microseconds(5),
                   .victim_weight = 8},
        run_for);
    unequal_p99 = unequal.victim.p99_us;
    BenchRecord r;
    r.name = "dispatch_same_band_unequal";
    r.p50_us = unequal.victim.p50_us;
    r.p99_us = unequal.victim.p99_us;
    r.p999_us = unequal.victim.p999_us;
    r.msgs_per_sec = unequal.victim_served / secs;
    records.push_back(r);
    table.AddRow({r.name, "-", Fmt("%.0f", r.p50_us), Fmt("%.0f", r.p99_us),
                  Fmt("%.0f", r.p999_us),
                  Fmt("victim sojourn, bound %.0f us",
                      kSameBandVictimP99CeilingUs)});
  }

  {  // --- token-bucket rate cap holds under pressure ---
    // Binding 0 capped at 1 MB/s of scheduling cost, binding 1 uncapped.
    constexpr std::uint64_t kCap = 1'000'000;
    const std::vector<double> counts =
        RunShareScenario({1, 1}, {kCap, 0}, run_for, nullptr);
    const double capped_bps =
        counts[0] * static_cast<double>(giop::DispatchPool::kJobBaseCost +
                                        giop::kHeaderSize) /
        secs;
    BenchRecord r;
    r.name = "dispatch_rate_cap";
    r.mbps = capped_bps * 8 / 1e6;
    records.push_back(r);
    table.AddRow({r.name, "-", "-", "-", "-",
                  Fmt("capped flow %.2f Mbit/s", r.mbps) +
                      Fmt(" (cap %.2f)", kCap * 8 / 1e6)});
  }

  std::printf("bench_qos_fairness (%s)\n", args.smoke ? "smoke" : "full");
  table.Print();
  std::printf(
      "  flood victim p99: hier %.0fus; retired flat scan %.0fus "
      "(BENCH_PR9.json) = %.1fx\n",
      hier_p99, kFlatVictimP99Us, kFlatVictimP99Us / hier_p99);

  if (!args.json_path.empty() && !WriteJson(args.json_path, records)) {
    return 1;
  }

  int failed = 0;
  auto check = [&failed](bool ok, const char* what, double got,
                         double bound) {
    std::printf("  %s %s: %.4f (bound %.1f)\n", ok ? "PASS" : "FAIL", what,
                got, bound);
    if (!ok) ++failed;
  };
  check(equal_jain >= kJainFloor, "dispatch_equal jain", equal_jain,
        kJainFloor);
  check(weighted_jain >= kJainFloor, "dispatch_weighted jain", weighted_jain,
        kJainFloor);
  const double flood_gain = kFlatVictimP99Us / hier_p99;
  check(flood_gain >= kFloodGainFloor, "flood victim flat/hier p99",
        flood_gain, kFloodGainFloor);
  check(unequal_p99 <= kSameBandVictimP99CeilingUs,
        "same-band unequal victim p99 us", unequal_p99,
        kSameBandVictimP99CeilingUs);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cool::bench

int main(int argc, char** argv) { return cool::bench::Run(argc, argv); }

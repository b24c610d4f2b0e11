// DispatchPool scheduling semantics: WFQ/DRR arbitration across the three
// bands, the anti-starvation floor a strict-priority scan never had,
// fairness charged in measured servant time, CoDel
// shedding via DropDispatchJob, cancel/detach, the memory a detached runner
// leaves behind, and a TSan-aimed stress mix with churning runners.
#include "giop/dispatch_pool.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/thread.h"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
// Exported by the sanitizer runtimes (compiler-rt declares it in
// sanitizer/allocator_interface.h, a header GCC does not install).
extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
#endif

namespace cool::giop {
namespace {

DispatchJob MakeJob(corba::ULong id) {
  DispatchJob job;
  job.header.request_id = id;
  job.header.response_expected = false;
  job.msg.buffer = ByteBuffer(std::vector<std::uint8_t>(kHeaderSize));
  job.args_offset = kHeaderSize;
  return job;
}

// Records run order and drop counts. A job whose id equals `gate_id` spins
// until Open() — the way these tests freeze the single worker while they
// shape the backlog behind it.
class Recorder : public DispatchRunner {
 public:
  static constexpr corba::ULong kGateId = 0xFFFF0000;

  void RunDispatchJob(const DispatchJob& job) override {
    started_.fetch_add(1, std::memory_order_acq_rel);
    if (job.header.request_id == kGateId) {
      while (!open_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(microseconds(50));
      }
    }
    if (work_ > Duration::zero()) std::this_thread::sleep_for(work_);
    order_[n_.fetch_add(1, std::memory_order_acq_rel) % order_.size()] =
        job.header.request_id;
  }

  void DropDispatchJob(const DispatchJob&) override {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }

  void Open() { open_.store(true, std::memory_order_release); }
  void set_work(Duration d) { work_ = d; }

  std::size_t runs() const { return n_.load(std::memory_order_acquire); }
  std::size_t started() const {
    return started_.load(std::memory_order_acquire);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  corba::ULong at(std::size_t i) const { return order_[i]; }
  bool Ran(corba::ULong id) const {
    const std::size_t n = std::min(runs(), order_.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (order_[i] == id) return true;
    }
    return false;
  }

 private:
  std::atomic<bool> open_{false};
  std::atomic<std::size_t> started_{0};
  std::atomic<std::uint64_t> dropped_{0};
  Duration work_ = Duration::zero();
  std::atomic<std::size_t> n_{0};
  std::array<corba::ULong, 1024> order_{};
};

qos::SchedProfile InBand(qos::SchedProfile::Band band) {
  qos::SchedProfile profile;
  profile.band = band;
  return profile;
}

constexpr auto kHigh = qos::SchedProfile::Band::kHigh;
constexpr auto kNormal = qos::SchedProfile::Band::kNormal;
constexpr auto kLow = qos::SchedProfile::Band::kLow;

// Memory the process holds. Sanitizer allocators quarantine freed chunks,
// so any malloc/free churn grows RSS there; their live-heap count is the
// exact measure instead.
std::int64_t FootprintBytes() {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return static_cast<std::int64_t>(__sanitizer_get_current_allocated_bytes());
#else
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoll(line.substr(6)) * 1024;
  }
  return 0;
#endif
}

DispatchPool::Options OneWorker() {
  DispatchPool::Options o;
  o.workers = 1;
  return o;
}

void WaitFor(const std::function<bool()>& done, Duration timeout) {
  const TimePoint deadline = Now() + timeout;
  while (!done() && Now() < deadline) {
    std::this_thread::sleep_for(microseconds(200));
  }
}

TEST(DispatchSchedTest, HierarchicalServesHighBandFirst) {
  DispatchPool pool(OneWorker());
  Recorder r;
  const auto id = pool.AllocRunnerId();
  ASSERT_TRUE(pool.Submit(&r, id, InBand(kNormal),
                          MakeJob(Recorder::kGateId)));
  WaitFor([&] { return r.started() >= 1; }, seconds(10));
  ASSERT_TRUE(pool.Submit(&r, id, InBand(kLow), MakeJob(2)));
  ASSERT_TRUE(pool.Submit(&r, id, InBand(kHigh), MakeJob(3)));
  r.Open();
  pool.Close();
  ASSERT_EQ(r.runs(), 3u);
  EXPECT_EQ(r.at(0), Recorder::kGateId);
  EXPECT_EQ(r.at(1), 3u);
  EXPECT_EQ(r.at(2), 2u);
}

// The starvation regression the hierarchical scheduler fixes: under a
// sustained high-band flood, low-band work still progresses (the WFQ
// weights give the low band a guaranteed 1/13 floor; a strict-priority
// scan would hold it at zero until the flood stopped).
TEST(DispatchSchedTest, LowBandProgressesUnderHighFlood) {
  DispatchPool pool(OneWorker());
  Recorder flooder;
  flooder.set_work(microseconds(100));
  Recorder low;
  const auto flooder_id = pool.AllocRunnerId();
  const auto low_id = pool.AllocRunnerId();

  std::atomic<bool> stop{false};
  Thread flood([&] {
    corba::ULong id = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!pool.Submit(&flooder, flooder_id, InBand(kHigh),
                       MakeJob(id++))) {
        return;
      }
    }
  });

  for (corba::ULong id = 0; id < 10; ++id) {
    ASSERT_TRUE(pool.Submit(&low, low_id, InBand(kLow), MakeJob(id)));
  }
  // All ten low jobs must finish *while* the flood is still running.
  WaitFor([&] { return low.runs() >= 10; }, seconds(10));
  EXPECT_EQ(low.runs(), 10u);
  EXPECT_FALSE(stop.load());
  stop.store(true);
  pool.Close();
  flood.join();
}

TEST(DispatchSchedTest, CodelShedsThroughDropHook) {
  DispatchPool::Options options = OneWorker();
  options.codel_enabled = true;
  options.codel_target = milliseconds(1);
  options.codel_interval = milliseconds(10);
  DispatchPool pool(options);
  Recorder r;
  r.set_work(milliseconds(2));
  const auto id = pool.AllocRunnerId();
  for (corba::ULong i = 0; i < 300; ++i) {
    ASSERT_TRUE(pool.Submit(&r, id, InBand(kNormal), MakeJob(i)));
  }
  // 2ms of service per job against a 1ms sojourn target: the queue's
  // standing delay breaches immediately and drops must begin once the
  // 10ms interval elapses.
  WaitFor([&] { return r.runs() + r.dropped() >= 300; }, seconds(30));
  EXPECT_GT(r.dropped(), 0u);
  EXPECT_EQ(r.dropped(), pool.jobs_shed());
  EXPECT_EQ(r.runs() + r.dropped(), 300u);
  const auto stats = pool.StatsSnapshot();
  EXPECT_EQ(stats[1].dropped, pool.jobs_shed());  // all Normal band
  pool.Close();
}

TEST(DispatchSchedTest, CancelQueuedKillsOnlyUnstartedJobs) {
  DispatchPool pool(OneWorker());
  Recorder r;
  const auto id = pool.AllocRunnerId();
  ASSERT_TRUE(pool.Submit(&r, id, InBand(kNormal),
                          MakeJob(Recorder::kGateId)));
  ASSERT_TRUE(pool.Submit(&r, id, InBand(kNormal), MakeJob(10)));
  ASSERT_TRUE(pool.Submit(&r, id, InBand(kNormal), MakeJob(11)));
  ASSERT_TRUE(pool.Submit(&r, id, InBand(kNormal), MakeJob(12)));
  EXPECT_TRUE(pool.CancelQueued(id, 11));
  EXPECT_FALSE(pool.CancelQueued(id, 999));  // never submitted
  r.Open();
  pool.Close();
  EXPECT_EQ(r.runs(), 3u);  // gate + 10 + 12
  EXPECT_TRUE(r.Ran(10));
  EXPECT_FALSE(r.Ran(11));
  EXPECT_TRUE(r.Ran(12));
}

TEST(DispatchSchedTest, DetachRunnerDropsQueuedAndRefusesNew) {
  DispatchPool pool(OneWorker());
  Recorder gate;
  Recorder victim;
  const auto gate_id = pool.AllocRunnerId();
  const auto victim_id = pool.AllocRunnerId();
  ASSERT_TRUE(pool.Submit(&gate, gate_id, InBand(kHigh),
                          MakeJob(Recorder::kGateId)));
  for (corba::ULong i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        pool.Submit(&victim, victim_id, InBand(kNormal), MakeJob(i)));
  }
  pool.DetachRunner(victim_id);
  EXPECT_FALSE(
      pool.Submit(&victim, victim_id, InBand(kNormal), MakeJob(99)));
  gate.Open();
  pool.Close();
  EXPECT_EQ(victim.runs(), 0u);
  EXPECT_EQ(gate.runs(), 1u);
}

TEST(DispatchSchedTest, SubmitAfterCloseFails) {
  DispatchPool pool(OneWorker());
  Recorder r;
  const auto id = pool.AllocRunnerId();
  pool.Close();
  EXPECT_FALSE(pool.Submit(&r, id, InBand(kNormal), MakeJob(1)));
}

TEST(DispatchSchedTest, BackpressureBlocksThenDrains) {
  DispatchPool::Options options = OneWorker();
  options.queue_capacity = 4;
  DispatchPool pool(options);
  Recorder r;
  const auto id = pool.AllocRunnerId();
  ASSERT_TRUE(pool.Submit(&r, id, InBand(kNormal),
                          MakeJob(Recorder::kGateId)));
  std::atomic<bool> producer_done{false};
  Thread producer([&] {
    for (corba::ULong i = 1; i <= 10; ++i) {
      if (!pool.Submit(&r, id, InBand(kNormal), MakeJob(i))) return;
    }
    producer_done.store(true);
  });
  // Capacity 4 with the worker gated: the producer must be stuck.
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(producer_done.load());
  r.Open();
  WaitFor([&] { return producer_done.load(); }, seconds(10));
  EXPECT_TRUE(producer_done.load());
  pool.Close();
  producer.join();
  EXPECT_EQ(r.runs(), 11u);
}

TEST(DispatchSchedTest, StatsSnapshotCountsPerBand) {
  DispatchPool pool(OneWorker());
  Recorder r;
  const auto id = pool.AllocRunnerId();
  for (corba::ULong i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.Submit(&r, id, InBand(kHigh), MakeJob(i)));
  }
  ASSERT_TRUE(pool.Submit(&r, id, InBand(kLow), MakeJob(100)));
  WaitFor([&] { return r.runs() >= 5; }, seconds(10));
  const auto stats = pool.StatsSnapshot();
  EXPECT_EQ(stats[0].band, kHigh);
  EXPECT_EQ(stats[1].band, kNormal);
  EXPECT_EQ(stats[2].band, kLow);
  EXPECT_EQ(stats[0].dequeued, 4u);
  EXPECT_EQ(stats[2].dequeued, 1u);
  EXPECT_EQ(stats[0].enqueued, 4u);
  const std::string text = pool.DescribeStats();
  EXPECT_NE(text.find("class high"), std::string::npos);
  EXPECT_NE(text.find("class low"), std::string::npos);
  EXPECT_NE(text.find("service_us="), std::string::npos);
  pool.Close();
}

// The qos_mix contract at pool level: two High-band bindings, a weight-3
// flood whose upcalls take about 500 µs and a weight-8 binding with
// trivial upcalls. The pool charges each job its binding's measured
// servant time, so a DRR round lets the flood spend 300 µs (one job), not
// run its whole backlog; the victim's job starts after at most 2 flood
// jobs. Charging bytes (512 per job against a 12 KiB quantum) ran all 16
// first. The test asserts the start order, not timings.
TEST(DispatchSchedTest, SameBandFloodChargesServantTime) {
  DispatchPool pool(OneWorker());
  std::atomic<int> flood_started{0};
  std::atomic<int> flood_before_victim{-1};
  class Runner : public DispatchRunner {
   public:
    explicit Runner(std::function<void()> upcall)
        : upcall_(std::move(upcall)) {}
    void RunDispatchJob(const DispatchJob&) override { upcall_(); }

   private:
    std::function<void()> upcall_;
  };
  Runner flood([&] {
    flood_started.fetch_add(1);
    std::this_thread::sleep_for(microseconds(500));
  });
  Runner victim([&] {
    if (flood_before_victim.load() < 0) {
      flood_before_victim.store(flood_started.load());
    }
  });
  Recorder gate;
  const auto flood_id = pool.AllocRunnerId();
  const auto victim_id = pool.AllocRunnerId();
  const auto gate_id = pool.AllocRunnerId();
  qos::SchedProfile flood_profile = InBand(kHigh);
  flood_profile.weight = 3;
  qos::SchedProfile victim_profile = InBand(kHigh);
  victim_profile.weight = 8;

  // Both bindings run once, so each has a measured average.
  ASSERT_TRUE(pool.Submit(&flood, flood_id, flood_profile, MakeJob(1)));
  ASSERT_TRUE(pool.Submit(&victim, victim_id, victim_profile, MakeJob(1)));
  WaitFor([&] { return flood_before_victim.load() >= 0; }, seconds(10));
  ASSERT_EQ(flood_before_victim.exchange(-1), 1);

  // Freeze the worker, queue the flood's backlog, then the victim's job.
  ASSERT_TRUE(pool.Submit(&gate, gate_id, InBand(kLow),
                          MakeJob(Recorder::kGateId)));
  WaitFor([&] { return gate.started() >= 1; }, seconds(10));
  for (corba::ULong i = 0; i < 16; ++i) {
    ASSERT_TRUE(pool.Submit(&flood, flood_id, flood_profile, MakeJob(i)));
  }
  ASSERT_TRUE(pool.Submit(&victim, victim_id, victim_profile, MakeJob(2)));

  // What each job is charged: its binding's average upcall, in ns.
  const auto stats = pool.StatsSnapshot();
  std::uint64_t flood_price = 0;
  std::uint64_t victim_price = 0;
  for (const sched::FlowSnapshot& flow : stats[0].flows) {
    if (flow.id == flood_id) flood_price = flow.price;
    if (flow.id == victim_id) victim_price = flow.price;
  }
  EXPECT_GE(flood_price, 500'000u);  // the upcall sleeps 500 µs
  EXPECT_LT(victim_price, flood_price);

  const int flood_at_gate = flood_started.load();
  gate.Open();
  WaitFor([&] { return flood_before_victim.load() >= 0; }, seconds(10));
  EXPECT_LE(flood_before_victim.load() - flood_at_gate, 2);
  pool.Close();
  EXPECT_EQ(flood_started.load(), 17);
}

// A runner the pool has detached leaves nothing behind: a server that has
// served a million connections holds no more pool state than a fresh one.
TEST(DispatchSchedTest, DetachedRunnersHoldNoState) {
  DispatchPool pool(OneWorker());
  // Warm the allocator and the runner table before the baseline.
  for (int i = 0; i < 10'000; ++i) pool.DetachRunner(pool.AllocRunnerId());
  const std::int64_t before = FootprintBytes();
  for (int i = 0; i < 1'000'000; ++i) pool.DetachRunner(pool.AllocRunnerId());
  const std::int64_t grown = FootprintBytes() - before;
  EXPECT_LT(grown, std::int64_t{4} << 20)
      << "1M detached runners grew the footprint by " << (grown >> 10)
      << " KiB";
  // The guard the detach state exists for still holds.
  Recorder r;
  const auto id = pool.AllocRunnerId();
  pool.DetachRunner(id);
  EXPECT_FALSE(pool.Submit(&r, id, InBand(kNormal), MakeJob(1)));
  pool.Close();
  EXPECT_EQ(r.runs(), 0u);
}

// TSan target: churning runners (register/flood/detach) racing cancels
// and each other across four workers with CoDel on. The assertions are
// deliberately weak — the point is the interleavings.
TEST(DispatchSchedTest, ConcurrentChurnAgainstLiveReconfig) {
  DispatchPool::Options options;
  options.workers = 4;
  options.codel_enabled = true;
  options.codel_target = milliseconds(2);
  options.codel_interval = milliseconds(20);
  DispatchPool pool(options);

  constexpr int kProducers = 4;
  constexpr int kJobsPerRunner = 60;
  constexpr int kRunnersPerProducer = 6;

  std::vector<Thread> producers;
  std::array<std::atomic<std::uint64_t>, kProducers> submitted{};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int r = 0; r < kRunnersPerProducer; ++r) {
        Recorder runner;
        runner.set_work(microseconds(50));
        const auto id = pool.AllocRunnerId();
        qos::SchedProfile profile;
        profile.band = static_cast<qos::SchedProfile::Band>((p + r) % 3);
        profile.weight = 1 + static_cast<std::uint32_t>(r);
        if (r % 2 == 0) profile.rate_bytes_per_sec = 200'000;
        for (corba::ULong i = 0; i < kJobsPerRunner; ++i) {
          if (pool.Submit(&runner, id, profile, MakeJob(i))) {
            submitted[p].fetch_add(1, std::memory_order_relaxed);
          }
          if (i % 16 == 0) {
            (void)pool.CancelQueued(id, i / 2);
            // Brief pause so workers interleave with the churn instead of
            // the producers submitting and detaching everything unserved.
            std::this_thread::sleep_for(microseconds(200));
          }
        }
        // The detach barrier makes destroying `runner` safe right here,
        // mid-flood, with its jobs queued and in flight.
        pool.DetachRunner(id);
      }
    });
  }
  for (auto& t : producers) t.join();

  // Settle phase: after all the churn the pool must still dispatch. A
  // fresh runner with no detach/cancel races proves the workers survived
  // the churn.
  Recorder settle;
  const auto settle_id = pool.AllocRunnerId();
  constexpr corba::ULong kSettleJobs = 32;
  for (corba::ULong i = 0; i < kSettleJobs; ++i) {
    ASSERT_TRUE(pool.Submit(&settle, settle_id, qos::SchedProfile{},
                            MakeJob(i)));
  }
  WaitFor([&] { return settle.runs() >= kSettleJobs; }, seconds(10));
  ASSERT_GE(settle.runs(), kSettleJobs);
  pool.DetachRunner(settle_id);

  pool.Close();
  std::uint64_t total = 0;
  for (const auto& s : submitted) total += s.load();
  EXPECT_GT(total, 0u);
  EXPECT_GE(pool.jobs_run(), kSettleJobs);
}

}  // namespace
}  // namespace cool::giop

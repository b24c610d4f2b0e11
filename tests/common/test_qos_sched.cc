// BandScheduler (common/qos_sched.h) under a synthetic clock: the
// scheduler is passive and driven by explicit `now` values, so DRR quantum
// accounting, WFQ band ratios, token-bucket shaping and CoDel entry/exit
// are all pinned down deterministically here.
#include "common/qos_sched.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <vector>

#include "common/rng.h"

namespace cool::sched {
namespace {

using Sched = BandScheduler<int>;

constexpr TimePoint kT0 = TimePoint{} + seconds(10);
// DRR quantum; the items below cost what they weigh in bytes.
constexpr std::size_t kQ = 4096;

CodelParams Codel(Duration target, Duration interval) {
  return CodelParams{.enabled = true, .target = target, .interval = interval};
}

// Dequeues one item, asserting nothing was AQM-dropped on the way.
int MustDequeue(Sched& tree, TimePoint now) {
  std::vector<Sched::Served> dropped;
  auto served = tree.Dequeue(now, &dropped);
  EXPECT_TRUE(served.has_value());
  EXPECT_TRUE(dropped.empty());
  return served ? served->value : -1;
}

TEST(QosSchedTest, SingleFlowIsFifo) {
  Sched tree(kQ);
  for (int i = 1; i <= 3; ++i) {
    tree.Enqueue(Band::kNormal, 7, FlowProfile{}, i, 10, 10, kT0);
  }
  EXPECT_EQ(tree.queued(), 3u);
  EXPECT_EQ(MustDequeue(tree, kT0), 1);
  EXPECT_EQ(MustDequeue(tree, kT0), 2);
  EXPECT_EQ(MustDequeue(tree, kT0), 3);
  EXPECT_TRUE(tree.empty());
  EXPECT_FALSE(tree.Dequeue(kT0, nullptr).has_value());
}

TEST(QosSchedTest, DrrAlternatesEqualWeightFlows) {
  Sched tree(kQ);
  // Flow 1 items are 10x, flow 2 items are 20x; every item costs one
  // quantum, so service strictly alternates.
  for (int i = 1; i <= 3; ++i) {
    tree.Enqueue(Band::kNormal, 1, FlowProfile{}, 10 + i, kQ, kQ, kT0);
    tree.Enqueue(Band::kNormal, 2, FlowProfile{}, 20 + i, kQ, kQ, kT0);
  }
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) order.push_back(MustDequeue(tree, kT0));
  EXPECT_EQ(order, (std::vector<int>{11, 21, 12, 22, 13, 23}));
}

TEST(QosSchedTest, DrrFlowWeightScalesQuantum) {
  Sched tree(kQ);
  FlowProfile heavy;
  heavy.weight = 2;
  for (int i = 0; i < 8; ++i) {
    tree.Enqueue(Band::kNormal, 1, heavy, 1, kQ, kQ, kT0);  // weight 2
    tree.Enqueue(Band::kNormal, 2, FlowProfile{}, 2, kQ, kQ, kT0);
  }
  int flow1 = 0;
  for (int i = 0; i < 9; ++i) {
    if (MustDequeue(tree, kT0) == 1) ++flow1;
  }
  // 2:1 service: 6 of the first 9 dequeues belong to the heavy flow.
  EXPECT_EQ(flow1, 6);
}

TEST(QosSchedTest, DrrQuantumAccountingIsByteFair) {
  Sched tree(kQ);
  // Flow 1 sends 3-quantum items, flow 2 sends 1-quantum items: deficits
  // accumulate across rounds, so *bytes* equalize, not item counts. Equal
  // byte backlogs (48 quanta each) keep both flows busy for the whole run
  // — a flow that empties retires and forfeits its deficit, which would
  // skew the tally toward the survivor.
  for (int i = 0; i < 16; ++i) {
    tree.Enqueue(Band::kNormal, 1, FlowProfile{}, 1, 3 * kQ, 3 * kQ, kT0);
  }
  for (int i = 0; i < 48; ++i) {
    tree.Enqueue(Band::kNormal, 2, FlowProfile{}, 2, kQ, kQ, kT0);
  }
  std::int64_t bytes1 = 0;
  std::int64_t bytes2 = 0;
  for (int i = 0; i < 24; ++i) {
    std::vector<Sched::Served> dropped;
    auto served = tree.Dequeue(kT0, &dropped);
    ASSERT_TRUE(served.has_value());
    (served->flow == 1 ? bytes1 : bytes2) +=
        static_cast<std::int64_t>(served->bytes);
  }
  // Within one max-size item of perfect byte fairness.
  EXPECT_LE(std::abs(bytes1 - bytes2), static_cast<std::int64_t>(3 * kQ));
}

TEST(QosSchedTest, WfqClassWeightsShareService) {
  Sched tree(kQ);
  for (int i = 0; i < 12; ++i) {
    tree.Enqueue(Band::kHigh, 1, FlowProfile{}, 1, kQ, kQ, kT0);
    tree.Enqueue(Band::kNormal, 2, FlowProfile{}, 2, kQ, kQ, kT0);
    tree.Enqueue(Band::kLow, 3, FlowProfile{}, 3, kQ, kQ, kT0);
  }
  int served[4] = {};
  for (int i = 0; i < 13; ++i) ++served[MustDequeue(tree, kT0)];
  // Weights 8:4:1 -> 8, 4 and 1 of 13 equal-cost dequeues.
  EXPECT_EQ(served[1], 8);
  EXPECT_EQ(served[2], 4);
  EXPECT_EQ(served[3], 1);
}

TEST(QosSchedTest, ActivationGrantsNoCatchUpCredit) {
  Sched tree(kQ);
  for (int i = 0; i < 20; ++i) {
    tree.Enqueue(Band::kHigh, 1, FlowProfile{}, 1, kQ, kQ, kT0);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(MustDequeue(tree, kT0), 1);
  }
  // The Normal band activates after sitting idle through 10 services. It
  // joins at the current virtual time: the 8:4 ratio from here, not a
  // burst of Normal until its pass catches up.
  for (int i = 0; i < 4; ++i) {
    tree.Enqueue(Band::kNormal, 2, FlowProfile{}, 2, kQ, kQ, kT0);
  }
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) order.push_back(MustDequeue(tree, kT0));
  EXPECT_EQ(order, (std::vector<int>{2, 1, 1, 2, 1, 1, 2, 1}));
}

TEST(QosSchedTest, FlowTokenBucketShapes) {
  Sched tree(kQ);
  FlowProfile shaped;
  shaped.rate_bytes_per_sec = 1000;
  shaped.burst_bytes = 100;
  for (int i = 1; i <= 3; ++i) {
    tree.Enqueue(Band::kNormal, 1, shaped, i, 100, 100, kT0);
  }
  // Burst covers the first item; the bucket may go one item negative, so
  // the second is served too; the third must wait for tokens.
  EXPECT_EQ(MustDequeue(tree, kT0), 1);
  EXPECT_EQ(MustDequeue(tree, kT0), 2);
  EXPECT_FALSE(tree.Dequeue(kT0, nullptr).has_value());
  const auto ready = tree.NextReadyTime(kT0);
  ASSERT_TRUE(ready.has_value());
  EXPECT_EQ(*ready, kT0 + milliseconds(100));  // 100 B deficit at 1000 B/s
  EXPECT_FALSE(tree.Dequeue(kT0 + milliseconds(50), nullptr).has_value());
  EXPECT_EQ(MustDequeue(tree, kT0 + milliseconds(100)), 3);
}

TEST(QosSchedTest, DrainBypassesShaping) {
  Sched tree(kQ);
  FlowProfile shaped;
  shaped.rate_bytes_per_sec = 1;  // 1 B/s: effectively frozen
  shaped.burst_bytes = 1;
  for (int i = 1; i <= 3; ++i) {
    tree.Enqueue(Band::kNormal, 1, shaped, i, 100, 100, kT0);
  }
  EXPECT_EQ(MustDequeue(tree, kT0), 1);  // burst covers one (goes negative)
  EXPECT_FALSE(tree.Dequeue(kT0, nullptr).has_value());
  auto served = tree.Dequeue(kT0, nullptr, /*drain=*/true);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->value, 2);
}

TEST(QosSchedTest, CodelEntersDropStateAfterInterval) {
  Sched tree(kQ, Codel(milliseconds(5), milliseconds(100)));
  for (int i = 1; i <= 10; ++i) {
    tree.Enqueue(Band::kNormal, 1, FlowProfile{}, i, 10, 10, kT0);
  }

  // Sojourn above target starts the interval clock but nothing drops yet.
  std::vector<Sched::Served> dropped;
  auto served = tree.Dequeue(kT0 + milliseconds(10), &dropped);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->value, 1);
  EXPECT_TRUE(dropped.empty());

  // A full interval later the standing delay never dipped: the flow enters
  // the drop state, sheds its head, and serves the next item.
  dropped.clear();
  served = tree.Dequeue(kT0 + milliseconds(120), &dropped);
  ASSERT_TRUE(served.has_value());
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].value, 2);
  EXPECT_EQ(served->value, 3);

  const auto snap = tree.Snapshot();
  EXPECT_EQ(snap[BandIndex(Band::kNormal)].dropped, 1u);
}

TEST(QosSchedTest, CodelExitsWhenSojournDips) {
  Sched tree(kQ, Codel(milliseconds(5), milliseconds(100)));
  for (int i = 1; i <= 10; ++i) {
    tree.Enqueue(Band::kNormal, 1, FlowProfile{}, i, 10, 10, kT0);
  }
  std::vector<Sched::Served> dropped;
  (void)tree.Dequeue(kT0 + milliseconds(10), &dropped);   // start clock
  (void)tree.Dequeue(kT0 + milliseconds(120), &dropped);  // enter dropping
  EXPECT_EQ(dropped.size(), 1u);

  // Drain the stale backlog (shutdown-style), then offer fresh traffic
  // whose sojourn is under target: the drop state must exit.
  while (tree.Dequeue(kT0 + milliseconds(121), nullptr, true).has_value()) {
  }
  const TimePoint t1 = kT0 + milliseconds(200);
  for (int i = 100; i < 105; ++i) {
    tree.Enqueue(Band::kNormal, 1, FlowProfile{}, i, 10, 10, t1);
  }
  dropped.clear();
  for (int i = 100; i < 105; ++i) {
    auto s = tree.Dequeue(t1 + milliseconds(1), &dropped);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->value, i);
  }
  EXPECT_TRUE(dropped.empty());
}

TEST(QosSchedTest, RemoveIfCancelsQueuedItems) {
  Sched tree(kQ);
  for (int i = 1; i <= 4; ++i) {
    tree.Enqueue(Band::kNormal, 1, FlowProfile{}, i, 10, 10, kT0);
  }
  const std::size_t removed =
      tree.RemoveIf([](std::uint64_t, int v) { return v % 2 == 0; });
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(tree.queued(), 2u);
  EXPECT_EQ(MustDequeue(tree, kT0), 1);
  EXPECT_EQ(MustDequeue(tree, kT0), 3);
  // Cancelled items are neither served nor AQM drops.
  const auto snap = tree.Snapshot();
  EXPECT_EQ(snap[BandIndex(Band::kNormal)].dropped, 0u);
  EXPECT_EQ(snap[BandIndex(Band::kNormal)].dequeued, 2u);
}

TEST(QosSchedTest, RemoveFlowOnlyWhenIdle) {
  Sched tree(kQ);
  const std::size_t low = BandIndex(Band::kLow);
  tree.Enqueue(Band::kLow, 1, FlowProfile{}, 1, 10, 10, kT0);
  tree.RemoveFlow(Band::kLow, 1);  // queued: must be a no-op
  EXPECT_EQ(tree.Snapshot()[low].flows.size(), 1u);
  (void)MustDequeue(tree, kT0);
  tree.RemoveFlow(Band::kLow, 1);
  EXPECT_TRUE(tree.Snapshot()[low].flows.empty());
}

TEST(QosSchedTest, SnapshotReportsCountsAndSojourns) {
  Sched tree(kQ);
  for (int i = 0; i < 5; ++i) {
    tree.Enqueue(Band::kHigh, 42, FlowProfile{}, i, 10, 10, kT0);
  }
  (void)MustDequeue(tree, kT0 + milliseconds(3));
  (void)MustDequeue(tree, kT0 + milliseconds(3));

  const auto snap = tree.Snapshot();
  ASSERT_EQ(snap.size(), kBands);  // one row per band, no synthetic root
  const BandSnapshot& high = snap[BandIndex(Band::kHigh)];
  EXPECT_EQ(high.band, Band::kHigh);
  EXPECT_EQ(BandName(high.band), "high");
  EXPECT_EQ(high.enqueued, 5u);
  EXPECT_EQ(high.dequeued, 2u);
  EXPECT_EQ(high.queued, 3u);
  ASSERT_EQ(high.flows.size(), 1u);
  EXPECT_EQ(high.flows[0].id, 42u);
  EXPECT_EQ(high.flows[0].queued, 3u);
  // Both services waited 3ms; the histogram's p50 is in that bucket.
  EXPECT_GE(high.sojourn_p50_us, 2900u);
  EXPECT_LE(high.sojourn_p50_us, 3200u);
  EXPECT_EQ(tree.sojourn_histogram(Band::kHigh).count(), 2u);
  EXPECT_EQ(snap[BandIndex(Band::kLow)].enqueued, 0u);
}

TEST(QosSchedTest, CostDrivesDrrAndBytesDriveTheBucket) {
  Sched tree(kQ);
  // Equal bytes, unequal cost: flow 2's items cost 3 quanta, so DRR serves
  // flow 1 three times per flow-2 item, where a byte charge would
  // alternate.
  for (int i = 0; i < 6; ++i) {
    tree.Enqueue(Band::kNormal, 1, FlowProfile{}, 1, kQ, 10, kT0);
  }
  for (int i = 0; i < 2; ++i) {
    tree.Enqueue(Band::kNormal, 2, FlowProfile{}, 2, 3 * kQ, 10, kT0);
  }
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) order.push_back(MustDequeue(tree, kT0));
  EXPECT_EQ(order, (std::vector<int>{1, 1, 1, 2, 1, 1, 1, 2}));

  // A 1000 B/s cap meters the 100 bytes of each item, not its cost of 10
  // quanta: the third item waits 100 ms, not 41 s.
  Sched capped(kQ);
  FlowProfile shaped;
  shaped.rate_bytes_per_sec = 1000;
  shaped.burst_bytes = 100;
  for (int i = 1; i <= 3; ++i) {
    capped.Enqueue(Band::kNormal, 1, shaped, i, 10 * kQ, 100, kT0);
  }
  EXPECT_EQ(MustDequeue(capped, kT0), 1);
  EXPECT_EQ(MustDequeue(capped, kT0), 2);
  EXPECT_FALSE(capped.Dequeue(kT0, nullptr).has_value());
  EXPECT_EQ(capped.NextReadyTime(kT0), kT0 + milliseconds(100));
  EXPECT_EQ(MustDequeue(capped, kT0 + milliseconds(100)), 3);
}

TEST(QosSchedTest, PriceAppliesToQueuedItems) {
  Sched tree(kQ);
  for (int i = 0; i < 6; ++i) {
    tree.Enqueue(Band::kNormal, 1, FlowProfile{}, 1, 1, 10, kT0);
    tree.Enqueue(Band::kNormal, 2, FlowProfile{}, 2, 1, 10, kT0);
  }
  // Items of one unit each: priced at one quantum, the flows alternate.
  tree.SetPrice(Band::kNormal, 1, kQ);
  tree.SetPrice(Band::kNormal, 2, kQ);
  EXPECT_EQ(MustDequeue(tree, kT0), 1);
  EXPECT_EQ(MustDequeue(tree, kT0), 2);
  // Re-pricing flow 2 at 3 quanta re-prices the items it already queued.
  tree.SetPrice(Band::kNormal, 2, 3 * kQ);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) order.push_back(MustDequeue(tree, kT0));
  EXPECT_EQ(order, (std::vector<int>{1, 1, 1, 2}));
  const BandSnapshot normal = tree.Snapshot()[BandIndex(Band::kNormal)];
  for (const FlowSnapshot& flow : normal.flows) {
    EXPECT_EQ(flow.price, flow.id == 2 ? 3 * kQ : kQ);
  }
  tree.SetPrice(Band::kHigh, 2, kQ);  // no such flow in that band
  EXPECT_TRUE(tree.Snapshot()[BandIndex(Band::kHigh)].flows.empty());
}

// A head that needs thousands of quanta is served by the first Dequeue:
// the rounds in which every flow would only gain a quantum are granted in
// one step. A Dequeue that returned nothing here would leave a dispatch
// worker asleep with the job queued.
TEST(QosSchedTest, HeadCostingManyQuantaIsServedAtOnce) {
  Sched tree(kQ);
  tree.Enqueue(Band::kNormal, 1, FlowProfile{}, 1, 10'000 * kQ, 10, kT0);
  EXPECT_EQ(MustDequeue(tree, kT0), 1);

  // With a neighbour, the skipped rounds grant both flows alike: the
  // cheaper head goes first, and the dearer one keeps the credit it
  // earned meanwhile.
  tree.Enqueue(Band::kNormal, 1, FlowProfile{}, 1, 10'000 * kQ, 10, kT0);
  tree.Enqueue(Band::kNormal, 2, FlowProfile{}, 2, 5'000 * kQ, 10, kT0);
  EXPECT_EQ(MustDequeue(tree, kT0), 2);
  EXPECT_EQ(MustDequeue(tree, kT0), 1);
  EXPECT_TRUE(tree.empty());
}

// Golden order: a seeded mix of enqueues, dequeues, cancels and flow
// removals over the three bands (weights 8/4/1, quantum 4096, CoDel on at
// 2 ms / 20 ms), twelve flows of weights 1..8 with two rate-capped. Every
// served value, every shed value and every NextReadyTime answer is folded
// into one FNV-1a digest, so any change to a scheduling decision shows
// here. The digests were recorded on the hierarchical traffic-class tree
// this scheduler replaced (a root over three leaf classes configured as
// above) and must not move.
struct GoldenRun {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t served = 0;
  std::size_t shed = 0;
  std::size_t throttled = 0;
};

GoldenRun RunGoldenOrder(std::uint64_t seed) {
  Sched tree(kQ, Codel(milliseconds(2), milliseconds(20)));
  constexpr int kFlows = 12;
  auto band_of = [](int f) { return static_cast<Band>(f % 3); };
  auto profile_of = [](int f) {
    FlowProfile p;
    p.weight = static_cast<std::uint32_t>(1 + (f * 5) % 8);
    if (f == 4 || f == 9) {
      p.rate_bytes_per_sec = 400'000;
      p.burst_bytes = 16 * 1024;
    }
    return p;
  };
  auto flow_id = [](int f) { return static_cast<std::uint64_t>(100 + f); };

  GoldenRun run;
  auto mix = [&run](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      run.digest ^= (v >> (8 * i)) & 0xff;
      run.digest *= 0x100000001b3ULL;
    }
  };
  auto fold = [&](const std::optional<Sched::Served>& s,
                  const std::vector<Sched::Served>& drops) {
    for (const auto& d : drops) {
      mix(2);
      mix(static_cast<std::uint64_t>(d.value));
      ++run.shed;
    }
    if (s) {
      mix(1);
      mix(static_cast<std::uint64_t>(s->value));
      ++run.served;
    } else {
      mix(3);
    }
  };

  Rng rng(seed);
  TimePoint now = kT0;
  int next_value = 0;
  for (int step = 0; step < 20000; ++step) {
    now += microseconds(rng.NextBelow(160));
    // Alternate overload and underload phases so CoDel enters and leaves
    // its drop state.
    const std::uint64_t load = (step / 2500) % 2 == 0 ? 60 : 35;
    const std::uint64_t op = rng.NextBelow(100);
    if (op < load) {
      const int f = static_cast<int>(rng.NextBelow(kFlows));
      const std::size_t bytes = 512 + rng.NextBelow(8192);
      tree.Enqueue(band_of(f), flow_id(f), profile_of(f), next_value++, bytes,
                   bytes, now);
    } else if (op < 94) {
      std::vector<Sched::Served> drops;
      auto s = tree.Dequeue(now, &drops);
      fold(s, drops);
      if (!s && drops.empty()) {
        const auto ready = tree.NextReadyTime(now);
        if (ready) {
          ++run.throttled;
          mix(static_cast<std::uint64_t>((*ready - kT0).count()));
        } else {
          mix(4);
        }
      }
    } else if (op < 97) {
      const std::uint64_t k = rng.NextBelow(13);
      mix(tree.RemoveIf([k](std::uint64_t, int v) {
        return static_cast<std::uint64_t>(v) % 13 == k;
      }));
    } else {
      const int f = static_cast<int>(rng.NextBelow(kFlows));
      if (rng.NextBelow(2) == 0) {
        mix(tree.RemoveIf(
            [&](std::uint64_t id, int) { return id == flow_id(f); }));
      }
      tree.RemoveFlow(band_of(f), flow_id(f));
    }
  }
  for (;;) {
    std::vector<Sched::Served> drops;
    auto s = tree.Dequeue(now, &drops, /*drain=*/true);
    if (!s && drops.empty()) break;
    fold(s, drops);
  }
  for (const BandSnapshot& b : tree.Snapshot()) {
    mix(b.enqueued);
    mix(b.dequeued);
    mix(b.dropped);
    mix(b.bytes_dequeued);
    mix(b.sojourn_p99_us);
  }
  return run;
}

TEST(QosSchedTest, GoldenOrderDigest) {
  struct Case {
    std::uint64_t seed;
    std::uint64_t digest;
  };
  for (const Case c : {Case{1, 0x6f417d5bc79a5bc7ULL},
                       Case{0xc001, 0xd2335ab003380848ULL}}) {
    const GoldenRun run = RunGoldenOrder(c.seed);
    EXPECT_EQ(run.digest, c.digest) << "seed " << c.seed;
    // The mix exercises every decision kind, not only plain service.
    EXPECT_GT(run.served, 6000u) << "seed " << c.seed;
    EXPECT_GT(run.shed, 100u) << "seed " << c.seed;
    EXPECT_GT(run.throttled, 100u) << "seed " << c.seed;
  }
}

}  // namespace
}  // namespace cool::sched

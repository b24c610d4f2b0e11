// ClassifyForScheduling: the QoSParameter -> (band, weight, rate) mapping
// table from DESIGN.md §13, exercised bound by bound.
#include "qos/classify.h"

#include <gtest/gtest.h>

#include "qos/qos.h"

namespace cool::qos {
namespace {

using Band = SchedProfile::Band;

TEST(ClassifyTest, NoParametersIsUnshapedNormal) {
  const SchedProfile p = ClassifyForScheduling({});
  EXPECT_EQ(p.band, Band::kNormal);
  EXPECT_EQ(p.weight, 1u);
  EXPECT_EQ(p.rate_bytes_per_sec, 0u);
  EXPECT_FALSE(p.latency_sensitive);
}

TEST(ClassifyTest, PriorityBandBoundaries) {
  EXPECT_EQ(ClassifyForScheduling({RequirePriority(255)}).band, Band::kHigh);
  EXPECT_EQ(ClassifyForScheduling({RequirePriority(170)}).band, Band::kHigh);
  EXPECT_EQ(ClassifyForScheduling({RequirePriority(169)}).band, Band::kNormal);
  EXPECT_EQ(ClassifyForScheduling({RequirePriority(85)}).band, Band::kNormal);
  EXPECT_EQ(ClassifyForScheduling({RequirePriority(84)}).band, Band::kLow);
  EXPECT_EQ(ClassifyForScheduling({RequirePriority(0)}).band, Band::kLow);
}

TEST(ClassifyTest, PriorityScalesWeightWithinBand) {
  // Weight = 1 + (value - band_floor) / 11, clamped to [1, 8].
  EXPECT_EQ(ClassifyForScheduling({RequirePriority(170)}).weight, 1u);
  EXPECT_EQ(ClassifyForScheduling({RequirePriority(181)}).weight, 2u);
  EXPECT_EQ(ClassifyForScheduling({RequirePriority(255)}).weight, 8u);
  EXPECT_EQ(ClassifyForScheduling({RequirePriority(85)}).weight, 1u);
  EXPECT_EQ(ClassifyForScheduling({RequirePriority(169)}).weight, 8u);
  EXPECT_EQ(ClassifyForScheduling({RequirePriority(0)}).weight, 1u);
  EXPECT_EQ(ClassifyForScheduling({RequirePriority(84)}).weight, 8u);
}

TEST(ClassifyTest, FirstPriorityWins) {
  const SchedProfile p =
      ClassifyForScheduling({RequirePriority(200), RequirePriority(10)});
  EXPECT_EQ(p.band, Band::kHigh);
}

TEST(ClassifyTest, LatencyBoundPromotesToHigh) {
  const SchedProfile p =
      ClassifyForScheduling({RequireLatencyMicros(500, 2000)});
  EXPECT_EQ(p.band, Band::kHigh);
  EXPECT_TRUE(p.latency_sensitive);
  EXPECT_EQ(p.weight, 8u);  // bound <= 1ms
}

TEST(ClassifyTest, LatencyWeightTiers) {
  EXPECT_EQ(ClassifyForScheduling({RequireLatencyMicros(1'000, 5'000)}).weight,
            8u);
  EXPECT_EQ(ClassifyForScheduling({RequireLatencyMicros(10'000, 50'000)})
                .weight,
            4u);
  EXPECT_EQ(
      ClassifyForScheduling({RequireLatencyMicros(50'000, 100'000)}).weight,
      2u);
}

TEST(ClassifyTest, JitterCountsAsLatencySensitive) {
  const SchedProfile p = ClassifyForScheduling({RequireJitterMicros(200, 800)});
  EXPECT_EQ(p.band, Band::kHigh);
  EXPECT_TRUE(p.latency_sensitive);
  EXPECT_EQ(p.weight, 8u);
}

TEST(ClassifyTest, TightestOfSeveralBoundsSetsWeight) {
  const SchedProfile p = ClassifyForScheduling(
      {RequireLatencyMicros(20'000, 50'000), RequireJitterMicros(800, 2'000)});
  EXPECT_EQ(p.weight, 8u);  // the 800us jitter request is the tightest
}

TEST(ClassifyTest, ExplicitPriorityBeatsLatencyPromotion) {
  const SchedProfile p = ClassifyForScheduling(
      {RequirePriority(40), RequireLatencyMicros(500, 1'000)});
  EXPECT_EQ(p.band, Band::kLow);  // priority decides the band...
  EXPECT_TRUE(p.latency_sensitive);  // ...the sensitivity flag survives
}

TEST(ClassifyTest, BoundedThroughputMaxBecomesRateCap) {
  QoSParameter p;
  p.param_type = static_cast<corba::ULong>(ParamType::kThroughputKbps);
  p.request_value = 1'000;
  p.max_value = 8'000;  // ceiling: 8000 kbit/s = 1 MB/s
  const SchedProfile profile = ClassifyForScheduling({p});
  EXPECT_EQ(profile.rate_bytes_per_sec, 1'000'000u);
  EXPECT_EQ(profile.band, Band::kNormal);
}

TEST(ClassifyTest, UnboundedThroughputNeverShapes) {
  // The helper leaves max_value unbounded (the request is a floor): no cap.
  const SchedProfile p =
      ClassifyForScheduling({RequireThroughputKbps(8'000, 2'000)});
  EXPECT_EQ(p.rate_bytes_per_sec, 0u);
}

}  // namespace
}  // namespace cool::qos

// Configuration management: QoS requirements + network estimate -> module
// graph, with cost-model admission (paper §5.1 / §4.3).
#include "dacapo/config_manager.h"

#include <gtest/gtest.h>

namespace cool::dacapo {
namespace {

bool HasMechanism(const ModuleGraphSpec& spec, std::string_view name) {
  for (const MechanismSpec& m : spec.chain) {
    if (m.name == name) return true;
  }
  return false;
}

NetworkEstimate Lan() {
  NetworkEstimate net;
  net.bandwidth_bps = 100'000'000;
  net.rtt_us = 1000;
  net.loss_rate = 0.0;
  net.typical_packet_bytes = 8 * 1024;
  return net;
}

TEST(ConfigManagerTest, NoRequirementsYieldsEmptyGraph) {
  ConfigurationManager mgr;
  auto graph = mgr.Configure(qos::ProtocolRequirements{}, Lan());
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_TRUE(graph->spec.chain.empty());
  EXPECT_GT(graph->predicted_throughput_kbps, 0.0);
}

TEST(ConfigManagerTest, ErrorDetectionSelectsAChecksum) {
  ConfigurationManager mgr;
  qos::ProtocolRequirements req;
  req.need_error_detection = true;
  auto graph = mgr.Configure(req, Lan());
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(HasMechanism(graph->spec, mechanisms::kCrc16) ||
              HasMechanism(graph->spec, mechanisms::kCrc32));
}

TEST(ConfigManagerTest, StrictLossBoundPrefersCrc32) {
  ConfigurationManager mgr;
  qos::ProtocolRequirements req;
  req.need_error_detection = true;
  req.max_loss_permille = 0;
  auto graph = mgr.Configure(req, Lan());
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(HasMechanism(graph->spec, mechanisms::kCrc32));
}

TEST(ConfigManagerTest, RetransmissionWithoutThroughputUsesIrq) {
  ConfigurationManager mgr;
  qos::ProtocolRequirements req;
  req.need_retransmission = true;
  req.need_error_detection = true;
  auto graph = mgr.Configure(req, Lan());
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(HasMechanism(graph->spec, mechanisms::kIrq));
  EXPECT_FALSE(HasMechanism(graph->spec, mechanisms::kGoBackN));
}

TEST(ConfigManagerTest, ThroughputDemandSelectsGoBackN) {
  ConfigurationManager mgr;
  qos::ProtocolRequirements req;
  req.need_retransmission = true;
  req.min_throughput_kbps = 50'000;  // way above stop-and-wait capacity
  auto graph = mgr.Configure(req, Lan());
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_TRUE(HasMechanism(graph->spec, mechanisms::kGoBackN));
}

TEST(ConfigManagerTest, EncryptionAddsCipherOnTop) {
  ConfigurationManager mgr;
  qos::ProtocolRequirements req;
  req.need_encryption = true;
  req.need_error_detection = true;
  auto graph = mgr.Configure(req, Lan());
  ASSERT_TRUE(graph.ok());
  ASSERT_GE(graph->spec.chain.size(), 2u);
  // Cipher above (before) the checksum so the checksum covers ciphertext.
  EXPECT_EQ(graph->spec.chain.front().name, mechanisms::kXorCipher);
  EXPECT_NE(graph->spec.chain.back().name, mechanisms::kXorCipher);
}

TEST(ConfigManagerTest, OrderingWithoutArqUsesSequencer) {
  ConfigurationManager mgr;
  qos::ProtocolRequirements req;
  req.need_ordering = true;
  NetworkEstimate net = Lan();
  net.transport_reliable = false;
  auto graph = mgr.Configure(req, net);
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(HasMechanism(graph->spec, mechanisms::kSequencer));
}

TEST(ConfigManagerTest, ArqSubsumesOrdering) {
  ConfigurationManager mgr;
  qos::ProtocolRequirements req;
  req.need_ordering = true;
  req.need_retransmission = true;
  auto graph = mgr.Configure(req, Lan());
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(HasMechanism(graph->spec, mechanisms::kSequencer));
}

TEST(ConfigManagerTest, ReliableTransportSkipsSequencer) {
  ConfigurationManager mgr;
  qos::ProtocolRequirements req;
  req.need_ordering = true;
  NetworkEstimate net = Lan();
  net.transport_reliable = true;
  auto graph = mgr.Configure(req, net);
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(HasMechanism(graph->spec, mechanisms::kSequencer));
}

TEST(ConfigManagerTest, LossForcesArqWhenToleranceStrict) {
  ConfigurationManager mgr;
  qos::ProtocolRequirements req;
  req.max_loss_permille = 1;  // 0.1% tolerated
  NetworkEstimate net = Lan();
  net.loss_rate = 0.05;  // 5% raw loss
  auto graph = mgr.Configure(req, net);
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(HasMechanism(graph->spec, mechanisms::kIrq) ||
              HasMechanism(graph->spec, mechanisms::kGoBackN));
}

TEST(ConfigManagerTest, LossWithinToleranceNeedsNoArq) {
  ConfigurationManager mgr;
  qos::ProtocolRequirements req;
  req.max_loss_permille = 100;  // 10% tolerated
  NetworkEstimate net = Lan();
  net.loss_rate = 0.05;
  auto graph = mgr.Configure(req, net);
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(graph->spec.chain.empty());
}

TEST(ConfigManagerTest, ImpossibleThroughputRefused) {
  ConfigurationManager mgr;
  qos::ProtocolRequirements req;
  req.min_throughput_kbps = 10'000'000;  // 10 Gbit over a 100 Mbit link
  auto graph = mgr.Configure(req, Lan());
  EXPECT_EQ(graph.status().code(), ErrorCode::kResourceExhausted);
}

TEST(ConfigManagerTest, ImpossibleLatencyRefused) {
  ConfigurationManager mgr;
  qos::ProtocolRequirements req;
  req.max_latency_us = 10;  // 10us over a 1ms-RTT link
  auto graph = mgr.Configure(req, Lan());
  EXPECT_EQ(graph.status().code(), ErrorCode::kResourceExhausted);
}

TEST(ConfigManagerTest, GoBackNWindowScalesWithBdp) {
  ConfigurationManager mgr;
  qos::ProtocolRequirements req;
  req.need_retransmission = true;
  req.min_throughput_kbps = 50'000;

  NetworkEstimate slow = Lan();
  slow.rtt_us = 2000;
  NetworkEstimate fast = Lan();
  fast.rtt_us = 20000;  // 10x the RTT -> bigger window needed

  auto g_slow = mgr.Configure(req, slow);
  auto g_fast = mgr.Configure(req, fast);
  ASSERT_TRUE(g_slow.ok());
  ASSERT_TRUE(g_fast.ok());
  std::int64_t w_slow = 0;
  std::int64_t w_fast = 0;
  for (const auto& m : g_slow->spec.chain) {
    if (m.name == mechanisms::kGoBackN) w_slow = m.ParamOr("window", 0);
  }
  for (const auto& m : g_fast->spec.chain) {
    if (m.name == mechanisms::kGoBackN) w_fast = m.ParamOr("window", 0);
  }
  EXPECT_GT(w_fast, w_slow);
}

// A fast-link estimate: bandwidth 0 means "unbounded", as it does for
// sim::LinkProperties, so it neither caps throughput nor adds
// serialization delay, and both kinds of bound are admitted.
TEST(ConfigManagerTest, UnboundedBandwidthAdmitsLatencyAndThroughputBounds) {
  ConfigurationManager mgr;
  NetworkEstimate fast = Lan();
  fast.bandwidth_bps = 0;

  qos::ProtocolRequirements latency_bound;
  latency_bound.max_latency_us = 1000;  // propagation alone is 500 us
  auto g_latency = mgr.Configure(latency_bound, fast);
  ASSERT_TRUE(g_latency.ok()) << g_latency.status();
  EXPECT_LE(g_latency->predicted_latency_us, 1000.0);

  qos::ProtocolRequirements throughput_floor;
  throughput_floor.need_retransmission = true;
  throughput_floor.min_throughput_kbps = 50'000;  // above stop-and-wait
  auto g_throughput = mgr.Configure(throughput_floor, fast);
  ASSERT_TRUE(g_throughput.ok()) << g_throughput.status();
  EXPECT_TRUE(HasMechanism(g_throughput->spec, mechanisms::kGoBackN));
  EXPECT_GE(g_throughput->predicted_throughput_kbps, 50'000.0);
}

TEST(CostModelTest, IrqThroughputBoundByPacketPerRtt) {
  ConfigurationManager mgr;
  ModuleGraphSpec spec;
  spec.chain.push_back({mechanisms::kIrq, {}});
  NetworkEstimate net = Lan();
  net.rtt_us = 10000;  // 10 ms
  net.typical_packet_bytes = 1024;
  // Stop-and-wait: 1 KiB per 10ms = 100 KiB/s = ~819 kbit/s.
  const double kbps = mgr.EstimateThroughputKbps(spec, net);
  EXPECT_NEAR(kbps, 819.2, 50.0);
}

TEST(CostModelTest, EmptyGraphApproachesWireRate) {
  ConfigurationManager mgr;
  const double kbps = mgr.EstimateThroughputKbps(ModuleGraphSpec{}, Lan());
  EXPECT_GT(kbps, 0.9 * 100'000);
  EXPECT_LE(kbps, 100'000);
}

TEST(CostModelTest, LatencyIncludesPropagationAndSerialization) {
  ConfigurationManager mgr;
  NetworkEstimate net = Lan();
  const double us = mgr.EstimateLatencyMicros(ModuleGraphSpec{}, net);
  EXPECT_GT(us, net.rtt_us / 2.0);             // at least propagation
  EXPECT_GT(us, 8.0 * 8192 / 100.0 - 1);       // plus ~655us serialization
}

TEST(CostModelTest, MoreModulesMoreLatency) {
  ConfigurationManager mgr;
  ModuleGraphSpec shallow;
  shallow.chain.push_back({mechanisms::kCrc32, {}});
  ModuleGraphSpec deep = shallow;
  deep.chain.push_back({mechanisms::kXorCipher, {}});
  deep.chain.push_back({mechanisms::kSequencer, {}});
  EXPECT_GT(mgr.EstimateLatencyMicros(deep, Lan()),
            mgr.EstimateLatencyMicros(shallow, Lan()));
}

// The per-byte constants follow the kernels' measured rates (graph.cc), so
// the model relates the mechanisms the way the kernels do. Relations, not
// absolute figures, which vary by machine: the word-wide XOR cipher is
// cheaper per byte than the CRC-16 table kernel, and the hardware-folded
// CRC-32 costs well under a quarter of it (bench_mechanisms reads about a
// tenth). The old constants (crc32 1.0, crc16 2.0 ns/B) fail the last.
TEST(CostModelTest, ChecksumCostsFollowTheirKernels) {
  ConfigurationManager mgr;
  NetworkEstimate fast = Lan();
  fast.bandwidth_bps = 0;  // unbounded: the slowest stage sets the rate
  fast.typical_packet_bytes = 16 * 1024;

  ModuleGraphSpec with_crc16;
  with_crc16.chain.push_back({mechanisms::kXorCipher, {}});
  with_crc16.chain.push_back({mechanisms::kCrc16, {}});
  ModuleGraphSpec with_crc32 = with_crc16;
  with_crc32.chain.back().name = mechanisms::kCrc32;

  EXPECT_GE(mgr.EstimateThroughputKbps(with_crc32, fast),
            mgr.EstimateThroughputKbps(with_crc16, fast));
  EXPECT_LE(mgr.EstimateLatencyMicros(with_crc32, fast),
            mgr.EstimateLatencyMicros(with_crc16, fast));

  const MechanismRegistry& reg = MechanismRegistry::Global();
  const double crc16 = reg.Properties(mechanisms::kCrc16)->per_byte_ns;
  const double crc32 = reg.Properties(mechanisms::kCrc32)->per_byte_ns;
  const double xor_cipher =
      reg.Properties(mechanisms::kXorCipher)->per_byte_ns;
  EXPECT_LT(xor_cipher, crc16);
  EXPECT_LE(4 * crc32, crc16);
}

}  // namespace
}  // namespace cool::dacapo

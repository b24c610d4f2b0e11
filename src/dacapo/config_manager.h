// Configuration management (paper §5.1): "Applications specify their
// requirements within a service request, and Da CaPo configures in
// real-time layer C protocols that are optimally adapted to application
// requirements, network services, and available resources."
//
// Input:  ProtocolRequirements (mapped from the QoSSpec, src/qos/mapping.h)
//         + a NetworkEstimate describing the layer-T service.
// Output: a concrete ModuleGraphSpec plus the cost model's service
//         prediction, or kResourceExhausted when no configuration in the
//         mechanism library can satisfy the requirements — which the ORB
//         surfaces to the client as a QoS exception (unilateral
//         negotiation, paper §4.3).
#pragma once

#include <cstdint>

#include "dacapo/graph.h"
#include "qos/mapping.h"

namespace cool::dacapo {

// What layer T offers underneath the configured protocol.
struct NetworkEstimate {
  // 0 = unbounded, as in sim::LinkProperties: the wire neither caps the
  // rate nor adds serialization delay.
  std::uint64_t bandwidth_bps = 100'000'000;
  std::uint32_t rtt_us = 1000;
  double loss_rate = 0.0;             // datagram loss of the raw service
  std::size_t typical_packet_bytes = 8 * 1024;
  bool transport_reliable = false;    // true when T itself is a stream
};

struct ConfiguredGraph {
  ModuleGraphSpec spec;
  // Cost-model predictions (used for admission; the benchmarks measure the
  // real values).
  double predicted_throughput_kbps = 0.0;
  double predicted_latency_us = 0.0;

  std::string ToString() const;
};

class ConfigurationManager {
 public:
  explicit ConfigurationManager(
      const MechanismRegistry& registry = MechanismRegistry::Global())
      : registry_(registry) {}

  // Selects mechanisms for every required protocol function, then verifies
  // the composed graph against the performance constraints.
  Result<ConfiguredGraph> Configure(const qos::ProtocolRequirements& req,
                                    const NetworkEstimate& net) const;

  // Cost model, exposed for tests and the reconfiguration ablation. Both
  // account for module pipeline costs, per-packet headers, window limits.
  double EstimateThroughputKbps(const ModuleGraphSpec& spec,
                                const NetworkEstimate& net) const;
  double EstimateLatencyMicros(const ModuleGraphSpec& spec,
                               const NetworkEstimate& net) const;

 private:
  const MechanismRegistry& registry_;
};

}  // namespace cool::dacapo

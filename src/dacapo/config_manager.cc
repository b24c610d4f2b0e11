#include "dacapo/config_manager.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/logging.h"

namespace cool::dacapo {

namespace {

// Framing overhead the T module adds per packet (length prefix).
constexpr std::size_t kTFramingBytes = 4;
// Cost of one mailbox hop between neighbouring module threads.
constexpr double kQueueHopUs = 0.5;

}  // namespace

std::string ConfiguredGraph::ToString() const {
  std::ostringstream os;
  os << spec.ToString() << " predicted{thr="
     << static_cast<std::uint64_t>(predicted_throughput_kbps)
     << "kbps, lat=" << static_cast<std::uint64_t>(predicted_latency_us)
     << "us}";
  return os.str();
}

double ConfigurationManager::EstimateThroughputKbps(
    const ModuleGraphSpec& spec, const NetworkEstimate& net) const {
  const double pkt = static_cast<double>(net.typical_packet_bytes);

  std::size_t header_bytes = kTFramingBytes;
  double max_stage_us = kQueueHopUs;  // at minimum one hop
  double window_limit_bps = -1.0;

  for (const MechanismSpec& m : spec.chain) {
    const MechanismProperties* p = registry_.Properties(m.name);
    if (p == nullptr) continue;  // validated elsewhere
    header_bytes += p->header_bytes;
    const double stage_us =
        p->per_packet_us + p->per_byte_ns * pkt / 1000.0 + kQueueHopUs;
    max_stage_us = std::max(max_stage_us, stage_us);
    if (p->window_limited) {
      std::size_t window = p->window_packets;
      if (m.name == mechanisms::kGoBackN) {
        window = static_cast<std::size_t>(m.ParamOr("window", 32));
      }
      const double rtt_s = static_cast<double>(net.rtt_us) / 1e6;
      const double limit =
          static_cast<double>(window) * pkt * 8.0 / std::max(rtt_s, 1e-9);
      window_limit_bps =
          window_limit_bps < 0 ? limit : std::min(window_limit_bps, limit);
    }
  }

  // Modules form a thread pipeline: sustained rate is set by the slowest
  // stage, not the sum of stages.
  const double pipeline_bps = pkt * 8.0 / (max_stage_us / 1e6);
  const double wire_goodput_bps =
      net.bandwidth_bps == 0
          ? std::numeric_limits<double>::infinity()
          : static_cast<double>(net.bandwidth_bps) * pkt /
                (pkt + static_cast<double>(header_bytes));

  double bps = std::min(pipeline_bps, wire_goodput_bps);
  if (window_limit_bps >= 0) bps = std::min(bps, window_limit_bps);
  return bps / 1000.0;
}

double ConfigurationManager::EstimateLatencyMicros(
    const ModuleGraphSpec& spec, const NetworkEstimate& net) const {
  const double pkt = static_cast<double>(net.typical_packet_bytes);

  double processing_us = 0.0;
  std::size_t header_bytes = kTFramingBytes;
  for (const MechanismSpec& m : spec.chain) {
    const MechanismProperties* p = registry_.Properties(m.name);
    if (p == nullptr) continue;
    header_bytes += p->header_bytes;
    // Both directions traverse the chain once each; count one traversal per
    // one-way latency.
    processing_us += p->per_packet_us + p->per_byte_ns * pkt / 1000.0 +
                     kQueueHopUs;
  }

  const double serialization_us =
      net.bandwidth_bps == 0
          ? 0.0
          : (pkt + static_cast<double>(header_bytes)) * 8.0 /
                static_cast<double>(net.bandwidth_bps) * 1e6;
  const double propagation_us = static_cast<double>(net.rtt_us) / 2.0;
  return processing_us + serialization_us + propagation_us;
}

Result<ConfiguredGraph> ConfigurationManager::Configure(
    const qos::ProtocolRequirements& req, const NetworkEstimate& net) const {
  ModuleGraphSpec spec;

  // ---- mechanism selection, top (A-side) to bottom (T-side) --------------

  // Encryption sits on top so everything below (including ARQ headers and
  // checksums) covers the ciphertext.
  if (req.need_encryption) {
    MechanismSpec m;
    m.name = mechanisms::kXorCipher;
    // Both peers instantiate from the same spec, so the key rides in it
    // (a research prototype's stand-in for out-of-band key agreement).
    m.params["key"] = 0x5eed5eed5eedLL ^ static_cast<std::int64_t>(req.priority);
    spec.chain.push_back(std::move(m));
  }

  // Retransmission: required explicitly, or forced when the raw loss rate
  // exceeds what the application tolerates ("adapt to changing service
  // properties of the underlying network").
  const double tolerated_loss_rate =
      req.max_loss_permille ==
              std::numeric_limits<corba::ULong>::max()
          ? 1.0
          : static_cast<double>(req.max_loss_permille) / 1000.0;
  const bool loss_forces_arq =
      !net.transport_reliable && net.loss_rate > tolerated_loss_rate;
  const bool need_arq = req.need_retransmission || loss_forces_arq;

  bool arq_orders = false;
  if (need_arq) {
    // Stop-and-wait (IRQ) caps throughput at pkt/RTT; pick it only when the
    // throughput requirement fits under that cap with margin, otherwise use
    // a window sized to the bandwidth-delay product.
    const double rtt_s = std::max(static_cast<double>(net.rtt_us) / 1e6, 1e-9);
    const double irq_kbps = static_cast<double>(net.typical_packet_bytes) *
                            8.0 / rtt_s / 1000.0;
    MechanismSpec m;
    const auto rto_us =
        std::max<std::int64_t>(4 * static_cast<std::int64_t>(net.rtt_us),
                               2000);
    if (req.min_throughput_kbps != 0 &&
        static_cast<double>(req.min_throughput_kbps) > irq_kbps / 2.0) {
      m.name = mechanisms::kGoBackN;
      // Twice the bandwidth-delay product; an unbounded link has none, so
      // the requested rate stands in for the bandwidth.
      const double window_bps =
          net.bandwidth_bps != 0
              ? static_cast<double>(net.bandwidth_bps)
              : static_cast<double>(req.min_throughput_kbps) * 1000.0;
      const double bdp_packets =
          window_bps * rtt_s /
          (static_cast<double>(net.typical_packet_bytes) * 8.0);
      m.params["window"] =
          std::max<std::int64_t>(4, static_cast<std::int64_t>(bdp_packets) * 2);
      m.params["rto_us"] = rto_us;
    } else {
      m.name = mechanisms::kIrq;
      m.params["rto_us"] = rto_us;
    }
    arq_orders = true;  // both ARQ mechanisms deliver in order
    spec.chain.push_back(std::move(m));
  }

  if (req.need_ordering && !arq_orders && !net.transport_reliable) {
    MechanismSpec m;
    m.name = mechanisms::kSequencer;
    spec.chain.push_back(std::move(m));
  }

  // Error detection at the bottom: it covers every header pushed above it.
  if (req.need_error_detection || need_arq) {
    MechanismSpec m;
    // CRC32 when loss tolerance is strict (a 32-bit check misses fewer
    // corruptions) or the data rate is high (its kernel is the cheaper per
    // octet); CRC16, with the shorter trailer, otherwise.
    if (req.max_loss_permille <= 1 || req.min_throughput_kbps >= 20'000) {
      m.name = mechanisms::kCrc32;
    } else {
      m.name = mechanisms::kCrc16;
    }
    spec.chain.push_back(std::move(m));
  }

  // ---- admission against the cost model -----------------------------------

  ConfiguredGraph out;
  out.spec = spec;
  out.predicted_throughput_kbps = EstimateThroughputKbps(spec, net);
  out.predicted_latency_us = EstimateLatencyMicros(spec, net);

  if (req.min_throughput_kbps != 0 &&
      out.predicted_throughput_kbps <
          static_cast<double>(req.min_throughput_kbps)) {
    return Status(ResourceExhaustedError(
        "no protocol configuration reaches " +
        std::to_string(req.min_throughput_kbps) + " kbps (predicted " +
        std::to_string(static_cast<std::uint64_t>(
            out.predicted_throughput_kbps)) +
        " kbps for " + spec.ToString() + ")"));
  }
  if (req.max_latency_us != std::numeric_limits<corba::ULong>::max() &&
      out.predicted_latency_us > static_cast<double>(req.max_latency_us)) {
    return Status(ResourceExhaustedError(
        "no protocol configuration meets latency bound " +
        std::to_string(req.max_latency_us) + " us (predicted " +
        std::to_string(
            static_cast<std::uint64_t>(out.predicted_latency_us)) +
        " us)"));
  }
  // Residual loss: without ARQ the configured protocol passes the raw loss
  // through to the application.
  if (!need_arq && !net.transport_reliable &&
      net.loss_rate > tolerated_loss_rate) {
    return Status(ResourceExhaustedError(
        "link loss exceeds the tolerated loss bound and retransmission "
        "is not admissible"));
  }

  COOL_LOG(kDebug, "dacapo") << "configured " << out.ToString();
  return out;
}

}  // namespace cool::dacapo

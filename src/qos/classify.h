// QoSParameter -> scheduling profile: the classification stage of the
// classify/queue/schedule pipeline. A Request's negotiated QoS vector maps
// onto a traffic-class band plus a weight/rate profile — the way a switch
// ASIC maps CoS/DSCP onto local-priority + queue profile — which the GIOP
// dispatch pool's band scheduler (common/qos_sched.h) consumes.
//
// The mapping table (see DESIGN.md §13):
//
//   kPriority 170..255  -> High band,   weight 1 + (value-170)/11  (1..8)
//   kPriority  85..169  -> Normal band, weight 1 + (value-85)/11
//   kPriority   0..84   -> Low band,    weight 1 + value/11
//   kLatency/kJitter    -> High band (latency-sensitive); weight 8 for
//                          bounds <= 1ms, 4 for <= 10ms, else 2
//   kThroughputKbps     -> a bounded max_value becomes a token-bucket
//                          rate cap (the contract's ceiling); the request
//                          value alone (a floor) never shapes
//   no parameters       -> Normal band, weight 1, unshaped
//
// An explicit priority wins the band decision over latency/jitter
// promotion.
#pragma once

#include <cstdint>
#include <vector>

#include "common/qos_sched.h"
#include "qos/qos.h"

namespace cool::qos {

struct SchedProfile {
  using Band = sched::Band;

  Band band = Band::kNormal;
  // DRR weight among sibling bindings inside the band, 1..8.
  std::uint32_t weight = 1;
  // Token-bucket byte-rate cap derived from a bounded throughput
  // parameter; 0 = unshaped.
  std::uint64_t rate_bytes_per_sec = 0;
  // A latency or jitter bound was present (the band promotion reason).
  bool latency_sensitive = false;

  friend bool operator==(const SchedProfile&, const SchedProfile&) = default;
};

SchedProfile ClassifyForScheduling(
    const std::vector<QoSParameter>& params) noexcept;

}  // namespace cool::qos

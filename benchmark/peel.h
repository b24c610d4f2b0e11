// Layer peels: the workload's request shapes driven through one lower
// layer at a time, by that layer's public functions, with no ORB above it.
//
//  * cdr       EncodeArgs + EncodeResult, DecodeArgs + DecodeResult
//  * giop      BuildRequestPreamble + ParseMessage + ParseRequestHeader,
//              BuildReplyPreamble + ParseReplyHeader
//  * transport an echo through ComChannel::Call over TCP and over Da CaPo
//              with the workload's graph, carrying the workload's GIOP frames
//
// Subtracting these from the end-to-end latency leaves the ORB's own glue
// (stub, adapter, engines, reactor and dispatch hand-offs).
#pragma once

#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "qos/qos.h"
#include "workload.h"

namespace orbbench {

struct PeelInputs {
  std::vector<Op> ops;  // call shapes, cycled
  // qos_params of every Request (GIOP 9.9 when non-empty, else 1.0).
  std::vector<cool::qos::QoSParameter> qos_params;
  // Graph of the workload's Da CaPo bindings (empty spec: empty graph).
  cool::qos::QoSSpec dacapo_spec;
  cool::corba::OctetSeq object_key;
};

struct PeelResult {
  double encode_ns = 0;
  double decode_ns = 0;
  double request_codec_ns = 0;
  double reply_codec_ns = 0;
  double tcp_rtt_p50_us = 0;
  double tcp_rtt_p99_us = 0;
  double dacapo_rtt_p50_us = 0;
  double dacapo_rtt_p99_us = 0;
};

// Runs every peel within about `budget` of wall time. Fails if a layer
// rejects a shape or an echo comes back wrong.
Result<PeelResult> RunPeels(const PeelInputs& in, const Payload& payload,
                            Duration budget);

}  // namespace orbbench

#include "stream/flow.h"

#include <algorithm>

#include "common/logging.h"

namespace cool::stream {

void FlowSpec::Encode(cdr::Encoder& enc) const {
  enc.PutDouble(frame_rate_hz);
  enc.PutULong(static_cast<corba::ULong>(frame_bytes));
  qos::EncodeQoSParameterSeq(enc, qos.parameters());
}

Result<FlowSpec> FlowSpec::Decode(cdr::Decoder& dec) {
  FlowSpec spec;
  COOL_ASSIGN_OR_RETURN(spec.frame_rate_hz, dec.GetDouble());
  if (!(spec.frame_rate_hz > 0) || spec.frame_rate_hz > 100000) {
    return Status(ProtocolError("implausible frame rate"));
  }
  COOL_ASSIGN_OR_RETURN(corba::ULong bytes, dec.GetULong());
  spec.frame_bytes = bytes;
  COOL_ASSIGN_OR_RETURN(auto params, qos::DecodeQoSParameterSeq(dec));
  COOL_ASSIGN_OR_RETURN(spec.qos, qos::QoSSpec::FromParameters(params));
  return spec;
}

void FlowStats::EncodeStats(cdr::Encoder& enc) const {
  enc.PutULongLong(frames_received);
  enc.PutULongLong(frames_lost);
  enc.PutULongLong(frames_reordered);
  enc.PutDouble(measured_fps);
  enc.PutDouble(throughput_kbps);
  enc.PutDouble(mean_jitter_us);
  enc.PutDouble(p95_jitter_us);
}

Result<FlowStats> FlowStats::DecodeStats(cdr::Decoder& dec) {
  FlowStats s;
  COOL_ASSIGN_OR_RETURN(s.frames_received, dec.GetULongLong());
  COOL_ASSIGN_OR_RETURN(s.frames_lost, dec.GetULongLong());
  COOL_ASSIGN_OR_RETURN(s.frames_reordered, dec.GetULongLong());
  COOL_ASSIGN_OR_RETURN(s.measured_fps, dec.GetDouble());
  COOL_ASSIGN_OR_RETURN(s.throughput_kbps, dec.GetDouble());
  COOL_ASSIGN_OR_RETURN(s.mean_jitter_us, dec.GetDouble());
  COOL_ASSIGN_OR_RETURN(s.p95_jitter_us, dec.GetDouble());
  return s;
}

// --- StreamSource -------------------------------------------------------------

Status StreamSource::Start() {
  if (running_.exchange(true)) {
    return FailedPreconditionError("source already started");
  }
  if (spec_.frame_bytes < kFrameHeaderBytes) {
    running_ = false;
    return InvalidArgumentError("frame smaller than its header");
  }
  thread_ = Thread([this](std::stop_token st) { Run(st); });
  return Status::Ok();
}

void StreamSource::Stop() {
  if (!running_.exchange(false)) return;
  thread_.request_stop();
  if (thread_.joinable()) thread_.join();
}

void StreamSource::Run(std::stop_token stop) {
  std::vector<std::uint8_t> frame(spec_.frame_bytes);
  for (std::size_t i = kFrameHeaderBytes; i < frame.size(); ++i) {
    frame[i] = static_cast<std::uint8_t>(i * 17);
  }
  const Duration period = spec_.FramePeriod();
  TimePoint deadline = Now();
  std::uint32_t seq = 0;

  while (!stop.stop_requested()) {
    deadline += period;
    const TimePoint now = Now();
    if (now < deadline) {
      PreciseSleep(deadline - now);
    } else if (now - deadline > period) {
      // Fell more than a frame behind (backpressure): skip frames rather
      // than letting the clock drift — a live source cannot buffer the
      // past.
      const auto behind = static_cast<std::uint64_t>((now - deadline) /
                                                     period);
      frames_skipped_ += behind;
      seq += static_cast<std::uint32_t>(behind);
      deadline += period * static_cast<long>(behind);
    }

    frame[0] = static_cast<std::uint8_t>(seq);
    frame[1] = static_cast<std::uint8_t>(seq >> 8);
    frame[2] = static_cast<std::uint8_t>(seq >> 16);
    frame[3] = static_cast<std::uint8_t>(seq >> 24);
    ++seq;
    if (Status s = session_->Send(frame); !s.ok()) {
      COOL_LOG(kDebug, "stream") << "source send failed: " << s;
      return;
    }
    ++frames_sent_;
  }
}

// --- StreamSink ----------------------------------------------------------------

Status StreamSink::Start() {
  if (running_.exchange(true)) {
    return FailedPreconditionError("sink already started");
  }
  thread_ = Thread([this](std::stop_token st) { Run(st); });
  return Status::Ok();
}

void StreamSink::Stop() {
  if (!running_.exchange(false)) return;
  thread_.request_stop();
  if (thread_.joinable()) thread_.join();
  if (owned_session_ != nullptr) owned_session_->Close();
}

void StreamSink::Run(std::stop_token stop) {
  while (!stop.stop_requested()) {
    // Zero-copy receive: the frame is inspected in packet memory and
    // released at the end of the iteration; only the counters survive.
    auto frame = session_->ReceivePacket(milliseconds(100));
    if (!frame.ok()) {
      if (frame.status().code() == ErrorCode::kDeadlineExceeded) continue;
      return;  // session closed
    }
    const auto data = (*frame)->Data();
    if (data.size() < kFrameHeaderBytes) continue;
    const std::uint32_t seq = static_cast<std::uint32_t>(data[0]) |
                              static_cast<std::uint32_t>(data[1]) << 8 |
                              static_cast<std::uint32_t>(data[2]) << 16 |
                              static_cast<std::uint32_t>(data[3]) << 24;
    const TimePoint now = Now();

    MutexLock lock(mu_);
    if (frames_received_ == 0) {
      first_rx_ = now;
    } else {
      interarrival_us_.push_back(ToMicros(now - last_rx_));
    }
    last_rx_ = now;
    ++frames_received_;
    bytes_received_ += data.size();
    if (seq > next_seq_) {
      frames_lost_ += seq - next_seq_;
      next_seq_ = seq + 1;
    } else if (seq < next_seq_) {
      ++frames_reordered_;
      if (frames_lost_ > 0) --frames_lost_;  // late, not lost after all
    } else {
      next_seq_ = seq + 1;
    }
  }
}

FlowStats StreamSink::stats() const {
  MutexLock lock(mu_);
  FlowStats s;
  s.frames_received = frames_received_;
  s.frames_lost = frames_lost_;
  s.frames_reordered = frames_reordered_;
  if (frames_received_ >= 2) {
    const double span_s = ToSeconds(last_rx_ - first_rx_);
    if (span_s > 0) {
      s.measured_fps = static_cast<double>(frames_received_ - 1) / span_s;
      s.throughput_kbps =
          static_cast<double>(bytes_received_) * 8.0 / span_s / 1000.0;
    }
    // Jitter: deviation of inter-arrival times from their own mean (the
    // mean is the effective frame period).
    std::vector<double> deltas = interarrival_us_;
    double mean_gap = 0;
    for (double d : deltas) mean_gap += d;
    mean_gap /= static_cast<double>(deltas.size());
    for (double& d : deltas) d = std::abs(d - mean_gap);
    std::sort(deltas.begin(), deltas.end());
    double sum = 0;
    for (double d : deltas) sum += d;
    s.mean_jitter_us = sum / static_cast<double>(deltas.size());
    s.p95_jitter_us = deltas[deltas.size() * 95 / 100];
  }
  return s;
}

}  // namespace cool::stream

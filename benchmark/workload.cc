#include "workload.h"

#include <algorithm>
#include <cstring>
#include <random>
#include <thread>
#include <unordered_map>

namespace orbbench {

namespace cdr = cool::cdr;
namespace orb = cool::orb;
namespace qos = cool::qos;

namespace {

// --- CRC-32 (IEEE 802.3, reflected), slicing by 8 ----------------------------

struct CrcTables {
  std::uint32_t t[8][256];
};

constexpr CrcTables MakeCrcTables() {
  CrcTables c{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t r = i;
    for (int k = 0; k < 8; ++k) {
      r = (r & 1) != 0 ? (r >> 1) ^ 0xEDB88320u : r >> 1;
    }
    c.t[0][i] = r;
  }
  for (int s = 1; s < 8; ++s) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      c.t[s][i] = (c.t[s - 1][i] >> 8) ^ c.t[0][c.t[s - 1][i] & 0xFF];
    }
  }
  return c;
}

constexpr CrcTables kCrc = MakeCrcTables();

// Mean gap of qos_mix's Poisson victim arrivals (2000 calls/s).
constexpr double kOpenLoopMeanGapUs = 500.0;

// SplitMix64: independent generator streams from one seed.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Every interval timed here runs forward on the steady clock.
std::uint64_t Nanos(Duration d) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

// Decodes and checks a two-way reply; OK when it is the right answer.
// Stamps `done` between the decode and the check, so latency excludes the
// benchmark's own verification.
Status DecodeAndCheck(const Result<orb::Stub::ReplyData>& reply, Op op,
                      std::uint32_t seq, const Payload& payload,
                      TimePoint* done) {
  if (!reply.ok()) {
    *done = cool::Now();
    return reply.status();
  }
  if (reply->status != cool::giop::ReplyStatus::kNoException) {
    *done = cool::Now();
    return cool::InternalError(OpName(op) + " raised a user exception");
  }
  cdr::Decoder dec = reply->MakeDecoder();
  const Result<Reply> result = DecodeResult(op, dec);
  *done = cool::Now();
  if (!result.ok()) return result.status();
  if (!CheckReply(op, seq, *result, payload)) {
    return cool::InternalError("wrong reply to " + OpName(op) + " " +
                               std::to_string(seq));
  }
  return Status::Ok();
}

orb::ORB::Options OrbOptions(std::size_t workers) {
  orb::ORB::Options options;
  options.estimate = FastLinkEstimate();
  if (workers != 0) options.giop_worker_threads = workers;
  return options;
}

}  // namespace

// --- operations --------------------------------------------------------------

const std::string& OpName(Op op) {
  static const std::string kNames[] = {"echo", "put", "get", "work"};
  return kNames[static_cast<std::size_t>(op)];
}

std::optional<Op> OpFromName(std::string_view name) {
  for (Op op : {Op::kEcho, Op::kPut, Op::kGet, Op::kWork}) {
    if (name == OpName(op)) return op;
  }
  return std::nullopt;
}

std::size_t UsefulBytes(Op op) {
  return op == Op::kPut || op == Op::kGet ? kBulkBytes
                                          : 2 * sizeof(std::uint32_t);
}

// Reads the input eight octets at a time in host order. The value differs
// between byte orders, but both ends of a check run the same function.
std::uint32_t Crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = kCrc.t[7][lo & 0xFF] ^ kCrc.t[6][(lo >> 8) & 0xFF] ^
          kCrc.t[5][(lo >> 16) & 0xFF] ^ kCrc.t[4][lo >> 24] ^
          kCrc.t[3][hi & 0xFF] ^ kCrc.t[2][(hi >> 8) & 0xFF] ^
          kCrc.t[1][(hi >> 16) & 0xFF] ^ kCrc.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- != 0) crc = (crc >> 8) ^ kCrc.t[0][(crc ^ *p++) & 0xFF];
  return ~crc;
}

Payload::Payload(std::uint64_t seed) : bytes_(kBlocks * kBulkBytes) {
  std::mt19937_64 rng(Mix(seed, 0));
  for (std::size_t i = 0; i < bytes_.size(); i += sizeof(std::uint64_t)) {
    const std::uint64_t word = rng();
    std::memcpy(bytes_.data() + i, &word, sizeof word);
  }
  for (std::uint32_t b = 0; b < kBlocks; ++b) crc_[b] = Crc32(Block(b));
}

std::span<const std::uint8_t> Payload::Block(std::uint32_t seq) const {
  return std::span<const std::uint8_t>(bytes_).subspan(
      (seq % kBlocks) * kBulkBytes, kBulkBytes);
}

void EncodeArgs(cdr::Encoder& enc, Op op, std::uint32_t binding_word,
                std::uint32_t seq, const Payload& payload) {
  enc.PutULong(binding_word);
  enc.PutULong(seq);
  if (op == Op::kPut) enc.PutOctetSeq(payload.Block(seq));
  if (op == Op::kGet) enc.PutULong(static_cast<std::uint32_t>(kBulkBytes));
}

Result<Request> DecodeArgs(Op op, cdr::Decoder& dec) {
  Request req;
  COOL_ASSIGN_OR_RETURN(req.binding_word, dec.GetULong());
  COOL_ASSIGN_OR_RETURN(req.seq, dec.GetULong());
  if (op == Op::kPut) {
    COOL_ASSIGN_OR_RETURN(req.data, dec.GetOctetSeqView());
  }
  if (op == Op::kGet) {
    COOL_ASSIGN_OR_RETURN(req.length, dec.GetULong());
    if (req.length > kBulkBytes) {
      return Status(cool::InvalidArgumentError("get longer than a block"));
    }
  }
  return req;
}

std::uint32_t Serve(Op op, const Request& req, const Payload& payload) {
  switch (op) {
    case Op::kEcho:
      return req.seq;
    case Op::kPut:
      return req.data.size() == kBulkBytes &&
                     Crc32(req.data) == payload.BlockCrc(req.seq)
                 ? static_cast<std::uint32_t>(req.data.size())
                 : 0;
    case Op::kGet:
      return req.length;
    case Op::kWork:
      std::this_thread::sleep_for(kWorkSleep);
      return req.seq;
  }
  return 0;
}

void EncodeResult(cdr::Encoder& enc, Op op, const Request& req,
                  std::uint32_t value, const Payload& payload) {
  if (op == Op::kGet) {
    enc.PutOctetSeq(payload.Block(req.seq).first(req.length));
  } else {
    enc.PutULong(value);
  }
}

Result<Reply> DecodeResult(Op op, cdr::Decoder& dec) {
  Reply reply;
  if (op == Op::kGet) {
    COOL_ASSIGN_OR_RETURN(reply.data, dec.GetOctetSeqView());
  } else {
    COOL_ASSIGN_OR_RETURN(reply.value, dec.GetULong());
  }
  return reply;
}

bool CheckReply(Op op, std::uint32_t seq, const Reply& reply,
                const Payload& payload) {
  switch (op) {
    case Op::kEcho:
    case Op::kWork:
      return reply.value == seq;
    case Op::kPut:
      return reply.value == kBulkBytes;
    case Op::kGet:
      return reply.data.size() == kBulkBytes &&
             Crc32(reply.data) == payload.BlockCrc(seq);
  }
  return false;
}

// --- spans -------------------------------------------------------------------

Tracer::Tracer(TimePoint origin, std::size_t capacity)
    : origin_(origin), client_(capacity), servant_(capacity) {}

std::int64_t Tracer::Ns(TimePoint t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

Tracer::Half* Tracer::Claim(std::vector<Half>& store,
                            std::atomic<std::size_t>& next) {
  const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
  return i < store.size() ? &store[i] : nullptr;
}

void Tracer::RecordClient(std::uint32_t binding, std::uint32_t seq, Op op,
                          TimePoint due, TimePoint issue, TimePoint ret) {
  if (Half* h = Claim(client_, client_next_)) {
    *h = Half{binding, seq, op, Ns(due), Ns(issue), Ns(ret)};
  }
}

void Tracer::RecordServant(std::uint32_t binding, std::uint32_t seq,
                           TimePoint enter, TimePoint exit) {
  if (Half* h = Claim(servant_, servant_next_)) {
    *h = Half{binding, seq, Op::kEcho, Ns(enter), Ns(exit), 0};
  }
}

std::vector<Tracer::Span> Tracer::Join() const {
  auto key = [](std::uint32_t binding, std::uint32_t seq) {
    return (static_cast<std::uint64_t>(binding) << 32) | seq;
  };
  const std::size_t n_servant =
      std::min(servant_next_.load(std::memory_order_relaxed), servant_.size());
  std::unordered_map<std::uint64_t, const Half*> servant_by_key;
  servant_by_key.reserve(n_servant);
  for (std::size_t i = 0; i < n_servant; ++i) {
    servant_by_key.emplace(key(servant_[i].binding, servant_[i].seq),
                           &servant_[i]);
  }
  const std::size_t n_client =
      std::min(client_next_.load(std::memory_order_relaxed), client_.size());
  std::vector<Span> spans;
  spans.reserve(n_client);
  for (std::size_t i = 0; i < n_client; ++i) {
    const Half& c = client_[i];
    const auto it = servant_by_key.find(key(c.binding, c.seq));
    if (it == servant_by_key.end()) continue;
    spans.push_back(Span{c.binding, c.seq, c.op, c.a, c.b, it->second->a,
                         it->second->b, c.c});
  }
  std::sort(spans.begin(), spans.end(), [](const Span& x, const Span& y) {
    return x.binding != y.binding ? x.binding < y.binding : x.seq < y.seq;
  });
  return spans;
}

std::uint64_t Tracer::dropped() const {
  auto over = [](std::size_t used, std::size_t cap) -> std::uint64_t {
    return used > cap ? used - cap : 0;
  };
  return over(client_next_.load(std::memory_order_relaxed), client_.size()) +
         over(servant_next_.load(std::memory_order_relaxed), servant_.size());
}

orb::DispatchOutcome BenchServant::Dispatch(std::string_view operation,
                                            cdr::Decoder& args,
                                            cdr::Encoder& out) {
  const TimePoint enter = cool::Now();
  const std::optional<Op> op = OpFromName(operation);
  if (!op) {
    return orb::DispatchOutcome::Fail(
        cool::UnsupportedError("unknown operation"));
  }
  const Result<Request> req = DecodeArgs(*op, args);
  if (!req.ok()) return orb::DispatchOutcome::Fail(req.status());
  EncodeResult(out, *op, *req, Serve(*op, *req, *payload_), *payload_);
  if ((req->binding_word & kTracedBit) != 0 && tracer_ != nullptr) {
    tracer_->RecordServant(req->binding_word & ~kTracedBit, req->seq, enter,
                           cool::Now());
  }
  return orb::DispatchOutcome::Ok();
}

// --- workloads ---------------------------------------------------------------

std::optional<Workload> WorkloadFromName(std::string_view name) {
  for (Workload w : {Workload::kPing, Workload::kPipeline, Workload::kBulk,
                     Workload::kQosMix}) {
    if (name == SpecFor(w).name) return w;
  }
  return std::nullopt;
}

WorkloadSpec SpecFor(Workload workload) {
  WorkloadSpec spec;
  BindingSpec b;
  switch (workload) {
    case Workload::kPing:
      // One caller, one TCP binding, GIOP 1.0 echo: the fixed per-call
      // cost of every layer on the shortest path.
      spec.name = "ping";
      spec.bindings = {b};
      break;
    case Workload::kPipeline:
      // Two callers on Da CaPo (empty graph), GIOP 9.9 with four QoS
      // parameters that change neither the graph nor the dispatch band,
      // 16 deferred calls in flight each: capacity under load.
      spec.name = "pipeline";
      b.protocol = orb::Protocol::kDacapo;
      b.qos = {qos::RequireReliability(0), qos::RequireOrdering(false),
               qos::RequireEncryption(false), qos::RequirePriority(85)};
      b.driver = Driver::kWindowed;
      b.depth = 16;
      spec.bindings = {b, b};
      break;
    case Workload::kBulk:
      // Two callers on a crc+cipher Da CaPo graph, each call a seeded
      // 50/50 choice of put or get of 16 KiB: per-byte cost, half of it on
      // the request path and half on the reply path.
      spec.name = "bulk";
      b.protocol = orb::Protocol::kDacapo;
      b.qos = {qos::RequireReliability(1), qos::RequireEncryption(true)};
      b.op = Op::kPut;
      spec.bindings = {b, b};
      break;
    case Workload::kQosMix: {
      // A latency-bound open-loop victim (High band, weight 8) against a
      // High-band and a Low-band flood on a two-worker server: isolation
      // by the QoS classifier and the dispatch scheduler.
      spec.name = "qos_mix";
      spec.server_workers = 2;
      b.protocol = orb::Protocol::kDacapo;
      BindingSpec victim = b;
      victim.qos = {qos::RequireLatencyMicros(1000, 1000)};
      victim.driver = Driver::kOpenLoop;
      victim.counts_ops = false;
      BindingSpec flood = b;
      flood.driver = Driver::kWindowed;
      flood.depth = 16;
      flood.op = Op::kWork;
      flood.measured = false;
      BindingSpec flood_a = flood;
      flood_a.qos = {qos::RequirePriority(200)};
      BindingSpec flood_b = flood;
      flood_b.qos = {qos::RequirePriority(10)};
      spec.bindings = {victim, flood_a, flood_b};
      break;
    }
  }
  return spec;
}

cool::dacapo::NetworkEstimate FastLinkEstimate() {
  cool::dacapo::NetworkEstimate estimate;
  estimate.bandwidth_bps = 10'000'000'000ull;
  estimate.rtt_us = 2;
  estimate.transport_reliable = true;
  return estimate;
}

cool::sim::LinkProperties FastLink() {
  cool::sim::LinkProperties link;
  link.bandwidth_bps = 0;
  link.latency = Duration::zero();
  link.jitter = Duration::zero();
  return link;
}

Status SyncCall(Binding& b, Op op, std::uint32_t binding_word,
                std::uint32_t seq, const Payload& payload, TimePoint* done) {
  cdr::Encoder enc = b.stub->MakeArgsEncoder();
  EncodeArgs(enc, op, binding_word, seq, payload);
  const auto reply = b.stub->Invoke(OpName(op), enc.buffer().view());
  TimePoint decoded;
  const Status checked = DecodeAndCheck(reply, op, seq, payload, &decoded);
  if (done != nullptr) *done = decoded;
  return checked;
}

World::World(const WorkloadSpec& spec, const Payload& payload,
             Tracer* tracer)
    : spec_(spec),
      payload_(payload),
      tracer_(tracer),
      net_(FastLink()),
      server_(&net_, "server", OrbOptions(spec.server_workers)),
      client_(&net_, "client", OrbOptions(0)) {}

Status World::Connect(SetupTimes& times) {
  COOL_ASSIGN_OR_RETURN(
      orb::ObjectRef ref,
      server_.RegisterServant(
          "bench", std::make_shared<BenchServant>(&payload_, tracer_)));
  key_ = ref.object_key;
  COOL_RETURN_IF_ERROR(server_.Start());
  bindings_.reserve(spec_.bindings.size());
  for (std::size_t i = 0; i < spec_.bindings.size(); ++i) {
    Binding b;
    b.index = static_cast<std::uint32_t>(i);
    b.spec = spec_.bindings[i];
    const orb::ObjectRef target =
        b.spec.protocol == orb::Protocol::kTcp
            ? ref
            : ref.WithProtocol(b.spec.protocol,
                               {"server", server_.options().dacapo_port});
    b.stub = std::make_unique<orb::Stub>(&client_, target);
    COOL_ASSIGN_OR_RETURN(qos::QoSSpec qos_spec,
                          qos::QoSSpec::FromParameters(b.spec.qos));

    TimePoint t0 = cool::Now();
    COOL_RETURN_IF_ERROR(b.stub->SetQoSParameter(qos_spec));
    times.set_qos_ms.push_back(cool::ToMillis(cool::Now() - t0));

    t0 = cool::Now();
    COOL_RETURN_IF_ERROR(SyncCall(b, Op::kEcho, b.index, 0, payload_));
    times.bind_ms.push_back(cool::ToMillis(cool::Now() - t0));
    b.next_seq = 1;
    bindings_.push_back(std::move(b));
  }
  return Status::Ok();
}

// --- load generation ---------------------------------------------------------

Load::Load(World& world, const Payload& payload, Tracer* tracer,
           std::uint64_t seed)
    : world_(world), payload_(payload), tracer_(tracer), seed_(seed) {}

Load::~Load() { Stop(); }

GenStats& Load::NewStats() {
  stats_.push_back(std::make_unique<GenStats>());
  return *stats_.back();
}

void Load::Start() {
  for (Binding& b : world_.bindings()) {
    // The seed fixes the bulk put/get sequence and the Poisson arrivals;
    // each binding draws from its own stream.
    const std::uint64_t stream_seed = Mix(seed_, 1 + b.index);
    GenStats& st = NewStats();
    switch (b.spec.driver) {
      case Driver::kSync:
        threads_.emplace_back(
            [this, &b, &st, stream_seed] { RunSync(b, st, stream_seed); });
        break;
      case Driver::kWindowed:
        threads_.emplace_back([this, &b, &st] { RunWindowed(b, st); });
        break;
      case Driver::kOpenLoop: {
        GenStats& collector = NewStats();
        threads_.emplace_back([this, &b, &st, stream_seed] {
          RunOpenSender(b, st, stream_seed);
        });
        threads_.emplace_back(
            [this, &b, &collector] { RunCollector(b, collector); });
        break;
      }
    }
  }
}

std::uint64_t Load::Outstanding() const {
  // Completions first: a call counted there was counted as issued before.
  const std::uint64_t done = measured_done_.load(std::memory_order_relaxed);
  return measured_issued_.load(std::memory_order_relaxed) - done;
}

void Load::Stop() {
  SetPhase(kStopped);
  open_cv_.notify_all();
  for (cool::Thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

bool Load::Traced(std::uint32_t seq) const {
  return tracer_ != nullptr && seq % kTraceEvery == 0 &&
         phase_.load(std::memory_order_relaxed) == kTraced;
}

std::uint32_t Load::BindingWord(const Binding& b, bool traced) const {
  return b.index | (traced ? kTracedBit : 0u);
}

void Load::RecordLate(GenStats& st, const Binding& b, TimePoint due,
                      TimePoint issue) {
  if (!b.spec.measured) return;
  const int phase = phase_.load(std::memory_order_relaxed);
  if (phase == kUntraced || phase == kTraced) {
    st.window[phase - kUntraced].late_ns.Add(Nanos(issue - due));
  }
}

void Load::Complete(GenStats& st, const Binding& b, const Issued& call,
                    bool ok, TimePoint done) {
  ++st.attempted;
  if (!ok) ++st.failed;
  if (b.spec.measured) measured_done_.fetch_add(1, std::memory_order_relaxed);
  const int phase = phase_.load(std::memory_order_relaxed);
  if (ok && (phase == kUntraced || phase == kTraced)) {
    Window& w = st.window[phase - kUntraced];
    w.bytes += UsefulBytes(call.op);
    if (b.spec.counts_ops) ++w.ops;
    if (b.spec.measured) {
      // An open loop times a call from when it was due, so a stall also
      // counts against the calls queued behind it.
      const TimePoint start =
          b.spec.driver == Driver::kOpenLoop ? call.due : call.issue;
      w.latency_ns.Add(Nanos(done - start));
    }
  }
  if (ok && call.traced) {
    tracer_->RecordClient(b.index, call.seq, call.op, call.due, call.issue,
                          done);
  }
}

bool Load::IssueDeferred(GenStats& st, Binding& b, Op op, TimePoint due,
                         Issued& out) {
  out.op = op;
  out.seq = b.next_seq++;
  out.traced = Traced(out.seq);
  out.due = due;
  out.issue = cool::Now();
  cdr::Encoder enc = b.stub->MakeArgsEncoder();
  EncodeArgs(enc, op, BindingWord(b, out.traced), out.seq, payload_);
  const Result<cool::corba::ULong> id =
      b.stub->InvokeDeferred(OpName(op), enc.buffer().view());
  if (!id.ok()) {
    ++st.attempted;
    ++st.failed;
    return false;
  }
  out.id = *id;
  if (b.spec.measured) measured_issued_.fetch_add(1, std::memory_order_relaxed);
  RecordLate(st, b, due, out.issue);
  return true;
}

void Load::Collect(GenStats& st, Binding& b, const Issued& call,
                   TimePoint* done) {
  const auto reply = b.stub->PollReply(call.id);
  const bool ok =
      DecodeAndCheck(reply, call.op, call.seq, payload_, done).ok();
  Complete(st, b, call, ok, *done);
}

void Load::RunSync(Binding& b, GenStats& st, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  TimePoint due = cool::Now();
  while (phase_.load(std::memory_order_relaxed) != kStopped) {
    Issued call;
    call.op = b.spec.op == Op::kPut ? ((rng() & 1) != 0 ? Op::kPut : Op::kGet)
                                    : b.spec.op;
    call.seq = b.next_seq++;
    call.traced = Traced(call.seq);
    call.due = due;
    if (b.spec.measured) {
      measured_issued_.fetch_add(1, std::memory_order_relaxed);
    }
    call.issue = cool::Now();
    TimePoint done;
    const bool ok = SyncCall(b, call.op, BindingWord(b, call.traced),
                             call.seq, payload_, &done)
                        .ok();
    Complete(st, b, call, ok, done);
    RecordLate(st, b, call.due, call.issue);
    // Closed loop: the next call is due the moment this one returned.
    due = done;
  }
}

void Load::RunWindowed(Binding& b, GenStats& st) {
  // Fixed ring of in-flight calls, completed in issue order.
  std::vector<Issued> ring(b.spec.depth);
  std::size_t head = 0;
  std::size_t count = 0;
  TimePoint due = cool::Now();
  for (;;) {
    const bool stopping = phase_.load(std::memory_order_relaxed) == kStopped;
    while (!stopping && count < ring.size()) {
      if (!IssueDeferred(st, b, b.spec.op, due,
                         ring[(head + count) % ring.size()])) {
        break;
      }
      ++count;
    }
    if (count == 0) {
      if (stopping) return;
      continue;
    }
    const Issued call = ring[head];
    head = (head + 1) % ring.size();
    --count;
    // The freed slot's next call is due when this one completes.
    Collect(st, b, call, &due);
  }
}

void Load::RunOpenSender(Binding& b, GenStats& st, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap_us(1.0 / kOpenLoopMeanGapUs);
  TimePoint due = cool::Now();
  while (phase_.load(std::memory_order_relaxed) != kStopped) {
    due += std::chrono::duration_cast<Duration>(
        std::chrono::duration<double, std::micro>(gap_us(rng)));
    std::this_thread::sleep_until(due);
    Issued call;
    if (!IssueDeferred(st, b, Op::kEcho, due, call)) continue;
    {
      std::lock_guard<std::mutex> lock(open_mu_);
      open_queue_.push_back(call);
    }
    open_cv_.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(open_mu_);
    open_sender_done_ = true;
  }
  open_cv_.notify_all();
}

void Load::RunCollector(Binding& b, GenStats& st) {
  for (;;) {
    Issued call;
    {
      std::unique_lock<std::mutex> lock(open_mu_);
      open_cv_.wait(lock, [this] {
        return !open_queue_.empty() || open_sender_done_;
      });
      if (open_queue_.empty()) return;
      call = open_queue_.front();
      open_queue_.pop_front();
    }
    // Replies are collected in send order: one that overtakes an earlier
    // call's reply is timed when its turn comes (a known, small bias).
    TimePoint done;
    Collect(st, b, call, &done);
  }
}

}  // namespace orbbench

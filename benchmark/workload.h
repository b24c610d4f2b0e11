// The ORB benchmark's workloads: the bench servant and the call codec it
// shares with the layer peels, the span tracer, the world (a simulated
// network with a server and a client ORB) and the load generators.
//
// Everything here drives the ORB through its public client and server
// API only: orb::ORB, orb::Stub and orb::Servant. The benchmark never
// reaches into the engine, the dispatch pool or their statistics, so the
// refactors planned for those layers can land without editing it.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cdr/decoder.h"
#include "cdr/encoder.h"
#include "common/clock.h"
#include "common/status.h"
#include "common/thread.h"
#include "orb/orb.h"
#include "orb/servant.h"
#include "orb/stub.h"
#include "qos/qos.h"
#include "stats.h"

namespace orbbench {

using cool::Duration;
using cool::Result;
using cool::Status;
using cool::TimePoint;

// --- the bench servant's operations ------------------------------------------
//
// Every request starts with two ulongs, the binding index and the call's
// sequence number on that binding; together they identify the call's spans.
//   echo(binding, seq)              -> seq
//   put(binding, seq, octets)       -> octet count (0 if the bytes are wrong)
//   get(binding, seq, length)       -> the seeded block for seq, `length` long
//   work(binding, seq)              -> seq, after sleeping kWorkSleep
enum class Op : std::uint8_t { kEcho, kPut, kGet, kWork };

const std::string& OpName(Op op);
std::optional<Op> OpFromName(std::string_view name);

// A call is sampled for tracing when its seq is a multiple of kTraceEvery;
// the client marks it by setting kTracedBit in the binding word.
inline constexpr std::uint32_t kTraceEvery = 16;
inline constexpr std::uint32_t kTracedBit = 0x8000'0000u;

inline constexpr std::size_t kBulkBytes = 16 * 1024;
inline constexpr Duration kWorkSleep = cool::microseconds(200);

// Application bytes a call carries, both directions together: the octet
// sequence for put/get, the 4-octet long each way for echo/work.
std::size_t UsefulBytes(Op op);

std::uint32_t Crc32(std::span<const std::uint8_t> bytes);

// The seeded bulk bytes: kBlocks blocks of kBulkBytes; call `seq` moves
// block seq % kBlocks.
class Payload {
 public:
  static constexpr std::size_t kBlocks = 16;

  explicit Payload(std::uint64_t seed);

  std::span<const std::uint8_t> Block(std::uint32_t seq) const;
  std::uint32_t BlockCrc(std::uint32_t seq) const {
    return crc_[seq % kBlocks];
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::array<std::uint32_t, kBlocks> crc_{};
};

// --- the call codec (shared by the live run and the codec peels) -------------

// Client: encodes a request's arguments.
void EncodeArgs(cool::cdr::Encoder& enc, Op op, std::uint32_t binding_word,
                std::uint32_t seq, const Payload& payload);

// Servant: the decoded arguments. `data` aliases the request frame.
struct Request {
  std::uint32_t binding_word = 0;
  std::uint32_t seq = 0;
  std::uint32_t length = 0;
  std::span<const std::uint8_t> data;
};
Result<Request> DecodeArgs(Op op, cool::cdr::Decoder& dec);

// Servant: the operation itself; returns the result value.
std::uint32_t Serve(Op op, const Request& req, const Payload& payload);

// Servant: encodes the result.
void EncodeResult(cool::cdr::Encoder& enc, Op op, const Request& req,
                  std::uint32_t value, const Payload& payload);

// Client: the decoded result. `data` aliases the reply frame.
struct Reply {
  std::uint32_t value = 0;
  std::span<const std::uint8_t> data;
};
Result<Reply> DecodeResult(Op op, cool::cdr::Decoder& dec);

// Client: true when the reply is the right answer to call `seq`.
bool CheckReply(Op op, std::uint32_t seq, const Reply& reply,
                const Payload& payload);

// --- spans -------------------------------------------------------------------

// Spans of sampled calls, recorded into preallocated memory and joined by
// (binding, seq) after the run. Times are nanoseconds since `origin`.
class Tracer {
 public:
  struct Span {
    std::uint32_t binding = 0;
    std::uint32_t seq = 0;
    Op op = Op::kEcho;
    // When the call was due: its Poisson arrival (open loop), or when the
    // call before it on the same slot returned (closed loop).
    std::int64_t due = 0;
    std::int64_t issue = 0;  // client starts encoding the arguments
    std::int64_t enter = 0;  // servant upcall starts
    std::int64_t exit = 0;   // servant upcall returns
    std::int64_t ret = 0;    // client has decoded the result
  };

  Tracer(TimePoint origin, std::size_t capacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void RecordClient(std::uint32_t binding, std::uint32_t seq, Op op,
                    TimePoint due, TimePoint issue, TimePoint ret);
  void RecordServant(std::uint32_t binding, std::uint32_t seq,
                     TimePoint enter, TimePoint exit);

  // Spans with both halves recorded, ordered by (binding, seq). Call only
  // once every recording thread has finished.
  std::vector<Span> Join() const;
  // Records lost because the preallocated memory was full.
  std::uint64_t dropped() const;

 private:
  struct Half {
    std::uint32_t binding = 0;
    std::uint32_t seq = 0;
    Op op = Op::kEcho;
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::int64_t c = 0;
  };

  std::int64_t Ns(TimePoint t) const;
  Half* Claim(std::vector<Half>& store, std::atomic<std::size_t>& next);

  TimePoint origin_;
  std::vector<Half> client_;
  std::vector<Half> servant_;
  std::atomic<std::size_t> client_next_{0};
  std::atomic<std::size_t> servant_next_{0};
};

class BenchServant : public cool::orb::Servant {
 public:
  // `tracer` may be null (untraced runs). Both must outlive the servant's
  // last upcall.
  BenchServant(const Payload* payload, Tracer* tracer)
      : payload_(payload), tracer_(tracer) {}

  std::string_view repository_id() const override {
    return "IDL:cool/benchmark/Bench:1.0";
  }

  cool::orb::DispatchOutcome Dispatch(std::string_view operation,
                                      cool::cdr::Decoder& args,
                                      cool::cdr::Encoder& out) override;

 private:
  const Payload* payload_;
  Tracer* tracer_;
};

// --- workloads ---------------------------------------------------------------

enum class Workload { kPing, kPipeline, kBulk, kQosMix };

std::optional<Workload> WorkloadFromName(std::string_view name);

// How one binding drives its calls.
enum class Driver {
  kSync,      // closed loop, one Stub::Invoke at a time
  kWindowed,  // closed loop, `depth` InvokeDeferred calls in flight
  kOpenLoop,  // Poisson arrivals, a sender and a collector thread
};

struct BindingSpec {
  cool::orb::Protocol protocol = cool::orb::Protocol::kTcp;
  std::vector<cool::qos::QoSParameter> qos;  // SetQoSParameter, if non-empty
  Driver driver = Driver::kSync;
  std::size_t depth = 1;
  Op op = Op::kEcho;  // kPut stands for the seeded put/get mix
  // The binding's calls feed lat_* and gen.* (measured) and/or ops_per_s.
  bool measured = true;
  bool counts_ops = true;
};

struct WorkloadSpec {
  std::string name;
  std::vector<BindingSpec> bindings;
  std::size_t server_workers = 0;  // 0 = ORB default
};

WorkloadSpec SpecFor(Workload workload);

// The Da CaPo configuration manager's view of the fast link. 10 Gbit/s,
// not 0: ConfigurationManager::EstimateLatencyMicros divides by the
// bandwidth, so an estimate of 0 NACKs every latency-bounded request.
cool::dacapo::NetworkEstimate FastLinkEstimate();

// The zero-latency, unpaced simulated link every workload runs on.
cool::sim::LinkProperties FastLink();

struct SetupTimes {
  std::vector<double> bind_ms;     // first call on each binding
  std::vector<double> set_qos_ms;  // SetQoSParameter on each binding
};

struct Binding {
  std::uint32_t index = 0;
  BindingSpec spec;
  std::unique_ptr<cool::orb::Stub> stub;
  std::uint32_t next_seq = 0;
};

// One benchmark world: the network, a server ORB exporting the bench
// servant, and a client ORB with one stub per binding.
class World {
 public:
  World(const WorkloadSpec& spec, const Payload& payload, Tracer* tracer);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // Starts the server, binds every stub and completes one checked call on
  // each. Appends the binding and SetQoSParameter times to `times`.
  Status Connect(SetupTimes& times);

  std::vector<Binding>& bindings() { return bindings_; }
  const cool::corba::OctetSeq& object_key() const { return key_; }

 private:
  const WorkloadSpec& spec_;
  const Payload& payload_;
  Tracer* tracer_;
  // Destroyed bottom-up: stubs unbind before the client ORB goes, and the
  // server shuts down before the network does.
  cool::sim::Network net_;
  cool::orb::ORB server_;
  cool::orb::ORB client_;
  std::vector<Binding> bindings_;
  cool::corba::OctetSeq key_;
};

// --- load generation ---------------------------------------------------------

enum Phase : int { kWarmup = 0, kUntraced = 1, kTraced = 2, kStopped = 3 };

// What the generator threads record in one kind of measured window.
struct Window {
  Histogram latency_ns;    // measured calls, completed and correct
  Histogram late_ns;       // issue - due, measured calls
  std::uint64_t ops = 0;   // completed correct calls (ops_per_s)
  std::uint64_t bytes = 0; // UsefulBytes of completed correct calls
};

// Everything one generator thread records; read only after it is joined.
struct GenStats {
  std::array<Window, 2> window;  // [0] untraced, [1] traced
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

class Load {
 public:
  Load(World& world, const Payload& payload, Tracer* tracer,
       std::uint64_t seed);
  ~Load();

  Load(const Load&) = delete;
  Load& operator=(const Load&) = delete;

  // Spawns the generator threads in the warm-up phase.
  void Start();
  void SetPhase(Phase phase) { phase_.store(phase, std::memory_order_relaxed); }
  // Calls of measured bindings issued but not yet completed.
  std::uint64_t Outstanding() const;
  // Stops issuing, completes every call in flight and joins the threads.
  void Stop();
  // The threads' records; valid after Stop().
  const std::vector<std::unique_ptr<GenStats>>& stats() const {
    return stats_;
  }

 private:
  struct Issued {
    cool::corba::ULong id = 0;
    Op op = Op::kEcho;
    std::uint32_t seq = 0;
    bool traced = false;
    TimePoint due;
    TimePoint issue;
  };

  // Allocated on the starting thread, before any generator runs.
  GenStats& NewStats();
  bool Traced(std::uint32_t seq) const;
  std::uint32_t BindingWord(const Binding& b, bool traced) const;
  void RecordLate(GenStats& st, const Binding& b, TimePoint due,
                  TimePoint issue);
  // Books one finished call: counters, window samples and its span.
  void Complete(GenStats& st, const Binding& b, const Issued& call,
                bool ok, TimePoint done);
  // Issues one deferred call; false (and booked as failed) on error.
  bool IssueDeferred(GenStats& st, Binding& b, Op op, TimePoint due,
                     Issued& out);
  // Collects a deferred call's reply, checks it and books it; `done` gets
  // the time the reply was decoded.
  void Collect(GenStats& st, Binding& b, const Issued& call, TimePoint* done);

  void RunSync(Binding& b, GenStats& st, std::uint64_t seed);
  void RunWindowed(Binding& b, GenStats& st);
  void RunOpenSender(Binding& b, GenStats& st, std::uint64_t seed);
  void RunCollector(Binding& b, GenStats& st);

  World& world_;
  const Payload& payload_;
  Tracer* tracer_;
  std::uint64_t seed_;
  std::atomic<int> phase_{kWarmup};
  std::atomic<std::uint64_t> measured_issued_{0};
  std::atomic<std::uint64_t> measured_done_{0};

  // Open loop hand-off: the sender queues issued calls, the collector polls
  // them in send order.
  std::mutex open_mu_;
  std::condition_variable open_cv_;
  std::deque<Issued> open_queue_;
  bool open_sender_done_ = false;

  std::vector<std::unique_ptr<GenStats>> stats_;
  // Declared last: joined (by Stop or the destructor) before the state
  // above is destroyed.
  std::vector<cool::Thread> threads_;
};

// Makes one synchronous call on `b`; OK when the reply checks out.
// `done`, if given, gets the time the reply was decoded (before the check).
Status SyncCall(Binding& b, Op op, std::uint32_t binding_word,
                std::uint32_t seq, const Payload& payload,
                TimePoint* done = nullptr);

}  // namespace orbbench

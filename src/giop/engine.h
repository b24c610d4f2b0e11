// GIOP protocol engines: the client and server halves of the message layer,
// running over one generic-transport channel each. The engines own request
// ids, reply matching, version selection (1.0 vs the 9.9 QoS extension) and
// backwards compatibility (a server with the extension disabled answers 9.9
// Requests with MessageError, as an unmodified COOL would).
//
// Both engines multiplex one channel across many in-flight requests:
//
// Neither engine owns a thread or ever blocks on a receive; bytes come in
// only through a transport::Reactor registration draining the channel's
// non-blocking receive path:
//
//  * GiopClient demultiplexes replies from a reactor callback (no thread
//    per binding). Per-request slots keyed by request id let Invoke /
//    InvokeDeferred / Locate from any number of caller threads pipeline
//    over the same connection. No lock is ever held across blocking I/O
//    (scripts/check_invariants.py rule 8).
//  * GiopServer::Drain is the server's receive loop, called from the
//    connection's reactor callback. Upcalls run on a shared DispatchPool
//    (one per ORB) whose hierarchical scheduler orders them by the 9.9
//    Request's QoS parameters, so the paper's QoS semantics survive
//    concurrency. Replies may return out of order; only the reply *send* is
//    serialized. A CancelRequest kills a queued-but-unstarted dispatch.
#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/buffer_pool.h"
#include "common/mutex.h"
#include "giop/dispatch_pool.h"
#include "giop/message.h"
#include "transport/com_channel.h"
#include "transport/reactor.h"

namespace cool::giop {

class GiopClient {
 public:
  struct Options {
    // Speak GIOP 9.9 for requests that carry QoS parameters. Requests
    // without QoS always use standard GIOP 1.0 (paper §4.1: "Never call
    // setQoSParameter: no QoS support is required and standard GIOP can be
    // used").
    bool use_qos_extension = true;
    cdr::ByteOrder order = cdr::NativeOrder();
    corba::OctetSeq principal;
    // Cap on remembered cancelled/timed-out request ids whose late replies
    // must be discarded; oldest entries are FIFO-evicted beyond this.
    std::size_t abandoned_cap = 1024;
  };

  // Replies are demultiplexed by a registration on `reactor`, made with the
  // first call that expects an answer. The channel and the reactor must
  // outlive the engine; the destructor removes the registration.
  GiopClient(transport::ComChannel* channel, transport::Reactor& reactor,
             Options options)
      : channel_(channel), reactor_(reactor), options_(std::move(options)) {}
  ~GiopClient();

  GiopClient(const GiopClient&) = delete;
  GiopClient& operator=(const GiopClient&) = delete;

  // A received Reply, with accessors to decode its result body.
  struct Reply {
    ReplyHeader header;
    ParsedMessage message;
    cdr::Decoder MakeResultsDecoder() const;

    // The reply body (results / exception) as raw octets, and its offset
    // within the whole GIOP message (always 8-aligned), for callers that
    // re-home the bytes into their own decoder.
    std::span<const corba::Octet> ResultsBytes() const {
      return message.body().subspan(results_offset_ - kHeaderSize);
    }
    std::size_t ResultsMessageOffset() const { return results_offset_; }

   private:
    friend class GiopClient;
    std::size_t results_offset_ = 0;
  };

  // Synchronous two-way invocation. `args_cdr` must be encoded with an
  // 8-aligned base offset (use MakeArgsEncoder). Carries `qos_params` in an
  // extended 9.9 Request when non-empty. Any number of threads may invoke
  // concurrently; their requests pipeline over the one channel.
  Result<Reply> Invoke(const corba::OctetSeq& object_key,
                       const std::string& operation,
                       std::span<const corba::Octet> args_cdr,
                       const std::vector<qos::QoSParameter>& qos_params,
                       Duration timeout = seconds(10));

  // One-way (response_expected = false); returns after handing the Request
  // to the transport.
  Status InvokeOneway(const corba::OctetSeq& object_key,
                      const std::string& operation,
                      std::span<const corba::Octet> args_cdr,
                      const std::vector<qos::QoSParameter>& qos_params);

  // Deferred-synchronous: sends the Request and returns its id; collect the
  // Reply later with PollReply (or abandon it with Cancel).
  Result<corba::ULong> InvokeDeferred(
      const corba::OctetSeq& object_key, const std::string& operation,
      std::span<const corba::Octet> args_cdr,
      const std::vector<qos::QoSParameter>& qos_params);
  Result<Reply> PollReply(corba::ULong request_id,
                          Duration timeout = seconds(10));

  // Sends CancelRequest and locally abandons the id: a waiting caller is
  // released with kCancelled, and a late Reply for it is discarded by the
  // demux.
  Status Cancel(corba::ULong request_id);

  // GIOP object location probe.
  Result<LocateStatus> Locate(const corba::OctetSeq& object_key,
                              Duration timeout = seconds(10));

  // Sends CloseConnection (client-initiated shutdown is non-standard in
  // GIOP 1.0 but COOL uses it to tear down idle bindings).
  Status SendClose();

  // Argument encoder whose alignment matches the spliced position inside
  // the Request message (8-aligned). Encodes into a pooled buffer; the
  // storage returns to the pool when the caller's ByteBuffer dies.
  cdr::Encoder MakeArgsEncoder() const {
    return cdr::Encoder(options_.order, 0, BufferPool::Default().Lease());
  }

  corba::ULong last_request_id() const {
    MutexLock lock(mu_);
    return next_request_id_ - 1;
  }

  // Number of requests currently awaiting a reply (tests/metrics).
  std::size_t in_flight() const {
    MutexLock lock(mu_);
    return pending_.size();
  }

 private:
  // One in-flight request awaiting its reply. Fields are guarded by the
  // client's mu_ (not annotatable from a nested type); `cv` has a single
  // waiter, so completion notifies with NotifyOne.
  struct Slot {
    CondVar cv;
    bool done = false;
    Result<ParsedMessage> outcome{Status(InternalError("reply pending"))};
  };

  struct PendingCall {
    corba::ULong id = 0;
    std::shared_ptr<Slot> slot;
  };

  // Allocates an id + slot, registers the demux if needed, and sends
  // the message whose preamble `build_head(id)` returns followed by `tail`
  // (empty for messages built whole, e.g. LocateRequest) as one gathered
  // write. Fails fast once the connection is known to be broken. Templated
  // on the builder so the hot path never type-erases it into a heap-backed
  // std::function.
  template <typename BuildHead>
  Result<PendingCall> StartCall(std::span<const corba::Octet> tail,
                                const BuildHead& build_head);

  // Blocks until the slot completes or `deadline` passes. On completion
  // the slot is consumed (erased from pending_). On timeout the id is
  // abandoned (Invoke/Locate) or left outstanding for a later poll
  // (PollReply), per `abandon_on_timeout`.
  Result<ParsedMessage> AwaitSlot(corba::ULong id,
                                  const std::shared_ptr<Slot>& slot,
                                  Duration timeout, bool abandon_on_timeout);

  // Registers the reply demux with the reactor on first use; on failure
  // the connection is marked broken.
  Status EnsureRegisteredLocked() COOL_REQUIRES(mu_);
  // Reactor callback: drains TryReceiveMessage until nothing is pending.
  void DrainReactor();
  // Parses and routes one received frame. Returns true when the
  // connection is terminal (demux should stop).
  bool HandleFrame(ByteBuffer raw);
  // Routes a Reply/LocateReply to its slot; unknown ids are discarded if
  // abandoned, logged otherwise.
  void CompleteRequest(corba::ULong request_id, ParsedMessage msg);
  // Fails every pending slot with `status`. `terminal` marks the
  // connection broken: subsequent calls fail fast and the abandoned-id
  // memory is released (nothing more can arrive).
  void FailPending(const Status& status, bool terminal);
  void AbandonLocked(corba::ULong id) COOL_REQUIRES(mu_);

  // Serializes writes to the channel; never held together with mu_.
  Status SendSerialized(const ByteBuffer& msg);
  // Gathered variant: {head, tail} leave as one message via SendMessageV.
  Status SendSerializedV(const ByteBuffer& head,
                         std::span<const corba::Octet> tail);

  // Builds the Request preamble (GIOP header + request header, 8-aligned,
  // message_size patched for `args_size` octets of body to follow) into a
  // pooled buffer. The args themselves never pass through here.
  ByteBuffer BuildRequestHead(const corba::OctetSeq& object_key,
                              const std::string& operation,
                              const std::vector<qos::QoSParameter>& qos_params,
                              std::size_t args_size, bool response_expected,
                              corba::ULong request_id) const;
  static Result<Reply> MakeReply(ParsedMessage parsed);

  transport::ComChannel* channel_;
  transport::Reactor& reactor_;
  Options options_;

  Mutex send_mu_{LockRank::kEngine, "giop::GiopClient::send_mu_"};
  mutable Mutex mu_{LockRank::kEngine, "giop::GiopClient::mu_"};
  corba::ULong next_request_id_ COOL_GUARDED_BY(mu_) = 1;
  std::unordered_map<corba::ULong, std::shared_ptr<Slot>> pending_
      COOL_GUARDED_BY(mu_);
  // Abandoned-id memory, allocated on the first cancel/timeout (same
  // rationale as GiopServer::CancelMemory: the empty deque is not free).
  struct AbandonMemory {
    std::unordered_set<corba::ULong> ids;
    std::deque<corba::ULong> fifo;  // FIFO eviction order beyond the cap
  };
  std::unique_ptr<AbandonMemory> abandoned_ COOL_GUARDED_BY(mu_);
  // Terminal connection status; non-OK once the connection has ended.
  Status broken_ COOL_GUARDED_BY(mu_) = Status::Ok();
  // Reactor registration of the reply demux; 0 until the first call.
  std::uint64_t rx_reg_ COOL_GUARDED_BY(mu_) = 0;
};

template <typename BuildHead>
Result<GiopClient::PendingCall> GiopClient::StartCall(
    std::span<const corba::Octet> tail, const BuildHead& build_head) {
  PendingCall call;
  {
    MutexLock lock(mu_);
    if (!broken_.ok()) return broken_;
    COOL_RETURN_IF_ERROR(EnsureRegisteredLocked());
    call.id = next_request_id_++;
    call.slot = std::make_shared<Slot>();
    pending_.emplace(call.id, call.slot);
  }
  const ByteBuffer head = build_head(call.id);
  const Status sent = SendSerializedV(head, tail);
  if (!sent.ok()) {
    MutexLock lock(mu_);
    pending_.erase(call.id);
    return sent;
  }
  return call;
}

class GiopServer : public DispatchRunner {
 public:
  struct Options {
    // When false the server is an unmodified GIOP 1.0 implementation: a
    // 9.9 Request is answered with MessageError.
    bool accept_qos_extension = true;
    cdr::ByteOrder order = cdr::NativeOrder();
    // Cap on remembered CancelRequest ids (FIFO-evicted beyond this).
    std::size_t cancelled_cap = 1024;
  };

  // What the upcall produced; body must be encoded with MakeBodyEncoder.
  struct DispatchResult {
    ReplyStatus status = ReplyStatus::kNoException;
    ByteBuffer body;
  };

  // Upcall into the object adapter. The decoder is positioned at the
  // operation arguments. The dispatcher is called from the pool's workers
  // concurrently and must be thread-safe.
  using Dispatcher =
      std::function<DispatchResult(const RequestHeader&, cdr::Decoder&)>;
  // Object-existence probe for LocateRequest.
  using Locator = std::function<bool(const corba::OctetSeq&)>;

  // Upcalls run on `pool`, which is shared by every connection of an ORB.
  // The channel and the pool must outlive the server; Close() detaches
  // from the pool.
  GiopServer(transport::ComChannel* channel, DispatchPool& pool,
             Dispatcher dispatcher, Options options)
      : GiopServer(channel, pool, std::move(dispatcher),
                   std::make_shared<const Options>(std::move(options))) {}

  // Shared-config constructor: an ORB builds ONE immutable Options block
  // and every accepted connection's server references it, instead of each
  // carrying a private copy — part of the per-connection memory diet.
  GiopServer(transport::ComChannel* channel, DispatchPool& pool,
             Dispatcher dispatcher, std::shared_ptr<const Options> options)
      : channel_(channel),
        pool_(pool),
        dispatcher_(std::move(dispatcher)),
        options_(std::move(options)) {}
  ~GiopServer();

  GiopServer(const GiopServer&) = delete;
  GiopServer& operator=(const GiopServer&) = delete;

  void SetLocator(Locator locator) { locator_ = std::move(locator); }

  // The receive loop, for the connection's reactor callback: handles every
  // message the channel holds right now (TryReceiveMessage -> HandleFrame)
  // and returns without blocking. Protocol errors are logged and the
  // connection stays open, as GIOP prescribes after MessageError. Returns
  // the number of messages handled while the connection stays open, or the
  // terminal status: kCancelled for a clean CloseConnection, kUnavailable
  // once the transport is gone.
  Result<std::size_t> Drain();

  // Handles one already-received message: a Request is parsed, admitted
  // and enqueued on the pool — the upcall itself may still be running when
  // HandleFrame returns. Returns:
  //  * OK            — message handled, connection still open
  //  * kCancelled    — peer sent CloseConnection (clean end)
  //  * kProtocolError — protocol violation (a MessageError was sent back
  //                    when possible); the connection survives
  //  * other         — the connection cannot go on
  Status HandleFrame(ByteBuffer raw);

  // DispatchRunner: runs one upcall (last-chance cancel check included).
  // Called by the pool's workers; public only for that reason.
  void RunDispatchJob(const DispatchJob& job) override;
  // DispatchRunner: a queued dispatch the pool's AQM shed — answers a
  // response-expecting Request with a TRANSIENT system exception so the
  // client sees the overload instead of a stall.
  void DropDispatchJob(const DispatchJob& job) override;

  // Detaches from the pool: drops this connection's queued dispatches and
  // waits out its running upcalls. Idempotent; called by the destructor.
  // Not safe to call concurrently with itself, nor from a pool worker.
  void Close();

  // Reply-body encoder over a pooled buffer (see MakeArgsEncoder).
  cdr::Encoder MakeBodyEncoder() const {
    return cdr::Encoder(options_->order, 0, BufferPool::Default().Lease());
  }

  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  // Dispatches killed before they started (cancelled while queued, or
  // cancel recorded before the Request arrived).
  std::uint64_t requests_cancelled() const {
    return requests_cancelled_.load(std::memory_order_relaxed);
  }
  // Queued dispatches the scheduler's AQM shed before they ran.
  std::uint64_t requests_shed() const {
    return requests_shed_.load(std::memory_order_relaxed);
  }

 private:
  Status HandleRequest(ParsedMessage msg);
  Status HandleCancel(corba::ULong request_id);
  // Runs the upcall and sends the Reply (when one is expected).
  Status DispatchAndReply(const DispatchJob& job);

  bool TakeCancelledLocked(corba::ULong id) COOL_REQUIRES(pool_mu_);
  void RememberCancelLocked(corba::ULong id) COOL_REQUIRES(pool_mu_);

  // Serializes reply/error sends from workers and the receive loop.
  Status SendSerialized(const ByteBuffer& msg);
  // Gathered variant: {head, tail} leave as one message via SendMessageV.
  Status SendSerializedV(const ByteBuffer& head,
                         std::span<const corba::Octet> tail);

  transport::ComChannel* channel_;
  DispatchPool& pool_;
  Dispatcher dispatcher_;
  // Immutable, typically shared across every connection of one ORB.
  std::shared_ptr<const Options> options_;
  Locator locator_;

  Mutex send_mu_{LockRank::kEngine, "giop::GiopServer::send_mu_"};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> requests_cancelled_{0};
  std::atomic<std::uint64_t> requests_shed_{0};

  // Identity under the dispatch pool.
  const std::uint64_t runner_id_ = pool_.AllocRunnerId();

  mutable Mutex pool_mu_{LockRank::kDispatchPool, "giop::GiopServer::pool_mu_"};
  bool pool_closed_ COOL_GUARDED_BY(pool_mu_) = false;
  // CancelRequest bookkeeping, allocated on the first cancel: cancels are
  // rare, and a default-constructed std::deque eagerly allocates ~576
  // bytes in libstdc++ — real money with one GiopServer per connection at
  // 100k connections.
  struct CancelMemory {
    std::unordered_set<corba::ULong> ids;
    std::deque<corba::ULong> fifo;  // FIFO eviction order beyond the cap
  };
  std::unique_ptr<CancelMemory> cancel_memory_ COOL_GUARDED_BY(pool_mu_);
};

}  // namespace cool::giop

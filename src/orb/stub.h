// Client-side stub base. Generated stubs (src/idl) and the dynamic
// invocation surface both sit on this class. It owns the binding to the
// target object and implements the paper's client-visible QoS API:
//
//  * SetQoSParameter — the method our modified Chic generates into every
//    stub ("setQoSParameter(struct QoSParameter** qp)"): stores the QoS
//    spec, turns the implicit binding into an explicit one, triggers the
//    unilateral transport negotiation, and attaches qos_params to every
//    subsequent Request (GIOP 9.9).
//  * Never call it -> pure GIOP 1.0, byte-identical to unmodified COOL.
//  * Call it once -> per-binding QoS; call it before every invocation ->
//    per-method QoS (paper §4.1).
//
// Invocation modes mirror the paper's Fig. 8 list: synchronous (call),
// one-way (send), deferred synchronous (defer/poll), asynchronous reply
// (notify), and cancel.
//
// Lifetime: the ORB must outlive its stubs. A remote binding's reply demux
// is a registration on the ORB's reactor (ORB::reactor()), removed when
// the binding dies, so destroying the ORB first leaves the stub holding a
// registration on a destroyed reactor.
#pragma once

#include <functional>

#include "common/buffer_pool.h"
#include "common/mutex.h"
#include "common/thread.h"
#include "giop/engine.h"
#include "orb/orb.h"

namespace cool::orb {

class Stub {
 public:
  Stub(ORB* orb, ObjectRef ref);
  virtual ~Stub();

  Stub(const Stub&) = delete;
  Stub& operator=(const Stub&) = delete;

  // --- QoS -------------------------------------------------------------------
  // Sets the QoS for every subsequent invocation on this stub. Empty spec
  // reverts to best effort / standard GIOP. Fails (without contacting the
  // server object) when the bound transport cannot satisfy the spec.
  Status SetQoSParameter(const qos::QoSSpec& spec);
  // Paper-style spelling.
  Status setQoSParameter(const qos::QoSSpec& spec) {
    return SetQoSParameter(spec);
  }
  qos::QoSSpec qos() const;
  // False until SetQoSParameter is first called (implicit binding), true
  // after (explicit, client-controlled binding).
  bool explicit_binding() const;

  // --- invocation -------------------------------------------------------------
  // Encoder for operation arguments (alignment-compatible with the Request
  // splice point). Encodes into a pooled buffer; the storage returns to
  // the pool when the caller's ByteBuffer dies.
  cdr::Encoder MakeArgsEncoder() const {
    return cdr::Encoder(order_, 0, BufferPool::Default().Lease());
  }

  // A decoded invocation outcome. `status` distinguishes normal results
  // from a user exception body; system exceptions surface as the
  // Result's error. `payload` owns the bytes the decoder reads — for a
  // remote call it is the whole GIOP reply frame adopted from the engine
  // (no copy), with the results starting at `results_offset`; for a
  // colocated call it is the dispatch body itself (offset 0).
  struct ReplyData {
    giop::ReplyStatus status = giop::ReplyStatus::kNoException;
    ByteBuffer payload;
    cdr::ByteOrder order = cdr::NativeOrder();
    std::size_t results_offset = 0;

    cdr::Decoder MakeDecoder() const {
      return cdr::Decoder(payload.view().subspan(results_offset), order,
                          results_offset);
    }
  };

  // Synchronous two-way call.
  Result<ReplyData> Invoke(const std::string& operation,
                           std::span<const corba::Octet> args,
                           Duration timeout = seconds(10));
  // One-way call.
  Status InvokeOneway(const std::string& operation,
                      std::span<const corba::Octet> args);
  // Deferred synchronous.
  Result<corba::ULong> InvokeDeferred(const std::string& operation,
                                      std::span<const corba::Octet> args);
  Result<ReplyData> PollReply(corba::ULong request_id,
                              Duration timeout = seconds(10));
  Status CancelRequest(corba::ULong request_id);
  // Asynchronous reply: callback runs on an internal thread.
  using AsyncCallback = std::function<void(Result<ReplyData>)>;
  Status InvokeAsync(const std::string& operation,
                     std::span<const corba::Octet> args,
                     AsyncCallback callback);

  // GIOP LocateRequest probe.
  Result<bool> LocateObject(Duration timeout = seconds(10));

  // Drops the binding; the next invocation rebinds (with the current QoS).
  Status Unbind();

  const ObjectRef& ref() const noexcept { return ref_; }
  // "", or the protocol of the live binding ("tcp", "ipc", "dacapo",
  // "colocated").
  std::string_view bound_protocol() const;

 private:
  // One live transport binding. Shared so concurrent invocations can keep
  // it alive across an Unbind: the stub lock only covers the snapshot, the
  // actual exchange runs lock-free and pipelines through the GiopClient
  // demultiplexer. Member order matters: the client is destroyed first
  // (removing its demux registration) while the channel is still alive.
  struct Binding {
    std::unique_ptr<transport::ComChannel> channel;
    std::unique_ptr<giop::GiopClient> client;
  };

  // Everything an invocation needs, snapshotted under mu_: the binding
  // (null when the target is colocated) and the QoS spec in force.
  struct CallContext {
    std::shared_ptr<Binding> binding;
    std::vector<qos::QoSParameter> qos;
  };

  // Establishes the binding if absent (implicit binding on first call).
  Status EnsureBoundLocked() COOL_REQUIRES(mu_);
  Result<CallContext> PrepareCall();
  // Takes the Reply by value: the reply frame moves into the ReplyData.
  Result<ReplyData> FromGiopReply(giop::GiopClient::Reply reply) const;
  Result<ReplyData> InvokeColocated(
      const std::string& operation, std::span<const corba::Octet> args,
      const std::vector<qos::QoSParameter>& qos_params);

  ORB* orb_;
  ObjectRef ref_;
  cdr::ByteOrder order_ = cdr::NativeOrder();

  mutable Mutex mu_{LockRank::kOrb, "orb::Stub::mu_"};
  std::shared_ptr<Binding> binding_ COOL_GUARDED_BY(mu_);
  qos::QoSSpec qos_ COOL_GUARDED_BY(mu_);
  bool explicit_binding_ COOL_GUARDED_BY(mu_) = false;
  bool colocated_ COOL_GUARDED_BY(mu_) = false;

  Mutex async_mu_{LockRank::kOrb, "orb::Stub::async_mu_"};
  std::vector<Thread> async_threads_ COOL_GUARDED_BY(async_mu_);
};

}  // namespace cool::orb

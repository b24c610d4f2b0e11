// The COOL generic transport protocol layer (paper §2, Fig. 8). The
// abstract class `ComChannel` is our `_COOL_ComChannel`: "the generic
// transport protocol is represented by the _COOL_ComChannel class. The
// actual implementations inherit from this class and implement the virtual
// methods to perform their functionality."
//
// The six invocation-support methods of the paper's `_DacapoComChannel`
// (call / send / reply / defer / notify / cancel) are provided here for
// every transport, implemented over the two message-pipe primitives each
// transport supplies (SendMessage / ReceiveMessage). True multiplexing of
// interleaved requests is the message layer's job (GIOP request_id); a
// channel carries one conversation.
//
// `SetQoSParameter` is the message-layer -> transport-layer interface of
// paper §4.3: "the abstract class defining the generic transport protocol
// is extended with the setQoSParameter method. ... Obviously, TCP does not
// implement the setQoSParameter method, but Da CaPo does."
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/byte_buffer.h"
#include "common/clock.h"
#include "common/intrusive_list.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread.h"
#include "qos/negotiation.h"
#include "qos/qos.h"
#include "sim/address.h"
#include "sim/waitset.h"

namespace cool::transport {

class ComChannel {
 public:
  ComChannel() = default;
  virtual ~ComChannel();

  ComChannel(const ComChannel&) = delete;
  ComChannel& operator=(const ComChannel&) = delete;

  // Transport identity, e.g. "tcp", "ipc", "dacapo".
  virtual std::string_view protocol() const = 0;

  // --- message pipe primitives (implemented by each transport) -----------
  virtual Status SendMessage(std::span<const std::uint8_t> message) = 0;
  virtual Result<ByteBuffer> ReceiveMessage(Duration timeout) = 0;
  virtual void Close() = 0;

  // --- reactor seams (non-blocking receive path) ---------------------------
  // The reactor is the only receive path of the ORB: every transport
  // implements both seams.
  //
  // Non-blocking receive: nullopt when no complete message is available
  // right now, kUnavailable once the channel is closed and drained. The
  // reactor drain contract: after a readiness callback, loop until nullopt
  // (signals are edge-ish — one signal may cover several messages).
  virtual Result<std::optional<ByteBuffer>> TryReceiveMessage() = 0;

  // Attaches the channel's receive readiness to `set` under `token`: the
  // set is signalled whenever TryReceiveMessage may make progress (arrival,
  // close). Returns false when the source cannot be watched.
  virtual bool RegisterRx(const sim::WaitSet& set, std::uint64_t token) = 0;

  // Scatter-gather send: the concatenation of `parts` forms ONE message on
  // the wire, indistinguishable from SendMessage(join(parts)) to the peer.
  // The GIOP engines use this to send {pooled preamble, caller-owned args}
  // without materializing the frame. Transports override this with a true
  // gathered write (writev-style for Tcp/Ipc, multi-part packet fill for
  // Da CaPo); the base implementation gathers into a pooled buffer and
  // falls back to SendMessage.
  virtual Status SendMessageV(
      std::span<const std::span<const std::uint8_t>> parts);

  // --- invocation support (paper Fig. 8 methods) ---------------------------
  // Two-way: sends the request message and waits for the reply message.
  Result<ByteBuffer> Call(std::span<const std::uint8_t> request,
                          Duration timeout = seconds(10));
  // One-way: sends without waiting ("will not wait for a reply").
  Status Send(std::span<const std::uint8_t> request);
  // Server side: sends a reply to a previously received request.
  Status Reply(std::span<const std::uint8_t> reply);

  // Deferred synchronous mode: the reply is collected later via Poll.
  struct Deferred {
    std::uint64_t id = 0;
  };
  Result<Deferred> Defer(std::span<const std::uint8_t> request);
  Result<ByteBuffer> PollDeferred(Deferred handle,
                                  Duration timeout = seconds(10));
  // Asynchronous replies: `callback` runs on an internal thread when the
  // reply (or a transport error) arrives.
  using ReplyCallback = std::function<void(Result<ByteBuffer>)>;
  Status Notify(std::span<const std::uint8_t> request, ReplyCallback callback);
  // Terminates the wait for an asynchronous/deferred reply.
  Status Cancel(Deferred handle);

  // --- QoS (unilateral message->transport negotiation, paper §4.3) ---------
  // Default: refuses any non-empty QoS spec (plain TCP / IPC behaviour).
  virtual Status SetQoSParameter(const qos::QoSSpec& spec);
  // What this transport can guarantee; used by the ORB to pre-screen before
  // sending a Request (and by tests).
  virtual qos::Capability TransportCapability() const;
  // The QoS the transport currently operates under (empty when best-effort).
  virtual qos::QoSSpec CurrentQoS() const { return {}; }

  // Channel registry hook (the `_dlink` of the original class hierarchy;
  // ComManager threads channels into `_dlist`s through it).
  DLink manager_link;

 protected:
  // Joins notify threads; call from derived destructors before members die.
  void DrainAsync();

  // Protected (not private) so derived channels can declare their tx/rx
  // locks COOL_ACQUIRED_AFTER these: Call() holds call_mu_ and Defer()
  // holds async_mu_ across the virtual SendMessage/ReceiveMessage, which
  // take the transport-level locks underneath.
  Mutex call_mu_{LockRank::kChannel, "transport::ComChannel::call_mu_"};  // serializes two-way conversations
  Mutex async_mu_{LockRank::kChannel, "transport::ComChannel::async_mu_"};

 private:
  std::vector<Thread> notify_threads_ COOL_GUARDED_BY(async_mu_);
  std::unordered_set<std::uint64_t> cancelled_ COOL_GUARDED_BY(async_mu_);
  std::uint64_t next_deferred_id_ COOL_GUARDED_BY(async_mu_) = 1;
  bool deferred_outstanding_ COOL_GUARDED_BY(async_mu_) = false;
};

// Base of the per-transport channel managers (`_ComManager` and its
// specializations in Fig. 8). A manager owns the passive endpoint and
// tracks live channels.
class ComManager {
 public:
  virtual ~ComManager() = default;

  ComManager() = default;
  ComManager(const ComManager&) = delete;
  ComManager& operator=(const ComManager&) = delete;

  virtual std::string_view protocol() const = 0;

  // Active open toward a peer's manager address. `qos` may be empty; a
  // transport that cannot satisfy a non-empty spec fails here (unilateral
  // negotiation happens before any byte leaves the node).
  virtual Result<std::unique_ptr<ComChannel>> OpenChannel(
      const sim::Address& remote, const qos::QoSSpec& qos) = 0;

  // Passive open; blocks until a peer connects or the manager closes.
  virtual Result<std::unique_ptr<ComChannel>> AcceptChannel() = 0;

  // Non-blocking accept: a null channel (no error) when nothing is pending,
  // kUnavailable once closed. Same drain contract as TryReceiveMessage.
  virtual Result<std::unique_ptr<ComChannel>> TryAcceptChannel() = 0;

  // Attaches accept readiness to `set` under `token`; false when the
  // source cannot be watched.
  virtual bool RegisterAccept(const sim::WaitSet& set,
                              std::uint64_t token) = 0;

  virtual void Close() = 0;
};

}  // namespace cool::transport

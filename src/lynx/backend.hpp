// The Backend interface: what the LYNX run-time package asks of an
// operating system.
//
// This interface is the paper's subject.  Everything above it (threads,
// request/reply queues, block points, fairness, type checking) is shared
// across the three implementations; everything below it (link
// representation, message screening, moving ends) differs per kernel —
// and the *cost* of bridging the gap is what the experiments measure.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/strong_id.hpp"
#include "lynx/message.hpp"
#include "net/packet.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace lynx {

struct BLinkTag {
  static const char* prefix() { return "bl"; }
};
// Backend-scoped token for a link end owned by this process.
using BLink = common::StrongId<BLinkTag>;

enum class MsgKind : std::uint8_t { kRequest, kReply };

struct WireMessage {
  MsgKind kind = MsgKind::kRequest;
  Bytes body;
  std::vector<BLink> enclosures;
  // Causal identity threaded from the runtime into the kernel frames
  // (trace::TraceId; 0 = untraced).
  std::uint64_t trace_id = 0;
};

enum class SendResult : std::uint8_t {
  kDelivered,
  kCancelled,       // cancel won the race; enclosures recovered (maybe)
  kLinkDestroyed,   // peer gone / link destroyed
  kReplyUnwanted,   // reply sent to an aborted caller (SODA/Chrysalis
                    // backends can detect this; Charlotte cannot)
};

struct SendOutcome {
  SendResult result = SendResult::kDelivered;
  // Charlotte deviation (§3.2.2): enclosures of an aborted/failed
  // message may be unrecoverable.
  std::vector<BLink> lost_enclosures;
};

// A send in flight.  The runtime awaits it in the sending thread and may
// cancel it from an abort path; the owning backend settles it.  Only the
// first settle counts, and a cancel after it is a no-op — otherwise
// cancel() goes to the backend through the hook it supplied.
class PendingSend {
 public:
  using CancelHook = std::function<void(PendingSend&)>;

  PendingSend(sim::Engine& engine, CancelHook on_cancel)
      : done_(engine), on_cancel_(std::move(on_cancel)) {}
  PendingSend(const PendingSend&) = delete;
  PendingSend& operator=(const PendingSend&) = delete;

  [[nodiscard]] sim::Task<SendOutcome> wait() { return done_.take(); }

  void cancel() {
    if (!settled_) on_cancel_(*this);
  }

  void settle(SendOutcome out) {
    if (settled_) return;
    settled_ = true;
    done_.fulfill(std::move(out));
  }

  [[nodiscard]] bool settled() const { return settled_; }

 private:
  sim::OneShot<SendOutcome> done_;
  CancelHook on_cancel_;
  bool settled_ = false;
};

struct BackendEvent {
  enum class Kind : std::uint8_t {
    kRequestArrived,
    kReplyArrived,
    kLinkDestroyed,
  };
  Kind kind = Kind::kRequestArrived;
  BLink link;
  Bytes body;
  std::vector<BLink> enclosures;  // receiver-side tokens of moved ends
  // TraceId recovered from the arriving message (0 = untraced), so the
  // receiving runtime continues the sender's causal chain.
  std::uint64_t trace = 0;
};

// Paper §6: the four capabilities that distinguish the primitive-kernel
// backends from the Charlotte backend (experiment E8).
struct Capabilities {
  bool moves_multiple_links_in_one_message = false;  // (1)
  bool all_received_messages_wanted = false;         // (2)
  bool recovers_enclosures_on_abort = false;         // (3)
  bool detects_all_exceptions = false;               // (4)
};

// The machinery every backend shares lives here, once: the lifecycle
// (start/shutdown), the upcalls to the runtime, the shutdown drain and
// the trace node.  A substrate supplies its protocol through the
// virtuals — the pump that serves its kernel, the teardown, the
// "still unsettled" predicate the drain waits on, and the bootstrap.
class Backend {
 public:
  using Sink = std::function<void(BackendEvent)>;

  Backend(sim::Engine& engine, net::NodeId node);
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;
  virtual ~Backend() = default;

  [[nodiscard]] virtual std::string kernel_name() const = 0;
  [[nodiscard]] virtual Capabilities capabilities() const = 0;

  // Installs the event sink and spawns pump().  Once per backend.
  void start(Sink sink);
  // Destroys every link still attached (normal exit and crash alike):
  // drains, then runs perform_shutdown().  Later calls are no-ops.
  void shutdown();

  // Creates a link with both ends owned by this process.
  [[nodiscard]] virtual sim::Task<std::pair<BLink, BLink>> make_link() = 0;

  // Loader fiat: a fresh link between this backend's process and
  // `peer`'s, as (our end, peer's end).  connect_any calls it only with
  // a peer of the same dynamic type; the default knows no substrate and
  // throws LynxError(kInvalidLink).
  [[nodiscard]] virtual sim::Task<std::pair<BLink, BLink>> bootstrap_link(
      Backend& peer);

  // Begins transmission of a request or reply.  The runtime guarantees
  // at most one send in flight per link end.
  [[nodiscard]] virtual std::unique_ptr<PendingSend> begin_send(
      BLink link, WireMessage msg) = 0;

  // Screening interest: want_requests mirrors the open/closed request
  // queue; want_replies is true while some thread awaits a reply.
  virtual void set_interest(BLink link, bool want_requests,
                            bool want_replies) = 0;

  // The thread awaiting a reply on `link` was aborted; the backend may
  // be able to tell the server (capability 4).
  virtual void retract_reply_interest(BLink link) = 0;

  // Destroys one end (and so the link).  A send still pending on it
  // settles kLinkDestroyed.
  [[nodiscard]] virtual sim::Task<void> destroy(BLink link) = 0;

  // Instrumentation for the experiments: kernel-level messages/frames
  // attributable to this backend since start.
  [[nodiscard]] virtual std::uint64_t protocol_messages() const = 0;

  // The simulated node this backend's process lives on, for trace
  // records (one Perfetto track group per node).
  [[nodiscard]] std::uint32_t trace_node() const { return node_.value(); }

 protected:
  // Early reply resolve (DESIGN.md §12): an enclosure-free reply settles
  // kDelivered once the substrate holds it, not when it is consumed.
  // The paper never tells a server its reply's fate (§3.2), so waiting
  // buys no semantics; requests (screening may bounce them) and
  // enclosure-bearing messages (the move must commit) still wait.
  [[nodiscard]] static bool resolves_early(MsgKind kind,
                                           std::size_t enclosures) {
    return kind == MsgKind::kReply && enclosures == 0;
  }

  [[nodiscard]] sim::Engine& engine() const { return *engine_; }
  [[nodiscard]] net::NodeId node() const { return node_; }
  // A fresh token for an end this process now holds.
  [[nodiscard]] BLink next_blink() { return blink_ids_.next(); }

  // The substrate's event loop; serves while serving() holds.
  [[nodiscard]] virtual sim::Task<> pump() = 0;
  // The substrate's teardown, once the drain is over.
  [[nodiscard]] virtual sim::Task<> perform_shutdown() = 0;
  // True while a send the runtime counts as settled (an early-resolved
  // reply) still needs the substrate: shutdown waits until false.
  [[nodiscard]] virtual bool has_unsettled() const { return false; }

  // Running, or shut down but still draining.
  [[nodiscard]] bool serving() const { return running_ || draining_; }
  // Call after anything that may settle a send: wakes the drain.
  void note_drain_progress();

  // Upcalls into the runtime.
  void upcall_arrival(BLink link, MsgKind kind, Bytes body,
                      std::vector<BLink> enclosures, std::uint64_t trace);
  void upcall_destroyed(BLink link);

 private:
  [[nodiscard]] sim::Task<> drain_then_shut_down();

  sim::Engine* engine_;
  net::NodeId node_;
  Sink sink_;
  bool running_ = false;
  // Shutdown was asked for but has_unsettled() still holds.
  bool draining_ = false;
  sim::WaitList drained_;
  common::IdAllocator<BLink> blink_ids_;
};

}  // namespace lynx

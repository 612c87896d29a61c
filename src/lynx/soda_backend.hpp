// The SODA backend (paper §4.2).
//
// A link is a pair of unique names, one per end; the owner of an end
// advertises its name.  Everything else is HINTS:
//
//   * every process keeps a hint for where the far end of each of its
//     links lives; hints can be wrong but usually work;
//   * screening is the application's: an incoming request interrupt is
//     *parked* (unaccepted, data still in the kernel) until the run-time
//     wants it — the accept is the acknowledgment, so every received
//     message is wanted and aborted sends are revocable with nothing
//     lost;
//   * a process that wants traffic keeps a status *signal* posted at the
//     peer, so it learns of destruction (accepted with DESTROYED
//     out-of-band info), moves (accepted with MOVED + new pid), and
//     crashes (kernel crash interrupt);
//   * moving an end = sending its name pair in the message body; the
//     receiver advertises the name; the mover accepts everything parked
//     from the fixed end with MOVED info, keeps the name in a cache of
//     recently-moved links, and answers stragglers from the cache;
//   * when every hint fails: discover (unreliable broadcast), and as the
//     absolute fallback the freeze/unfreeze search of §4.2 — freeze
//     every process, ask each for a hint, unfreeze, act on the best
//     answer; no hint anywhere means the link is destroyed.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "lynx/backend.hpp"
#include "lynx/runtime.hpp"
#include "soda/kernel.hpp"

namespace lynx {

// Shared per-experiment directory: "SODA makes it easy to guess their
// ids" — the freeze search needs to reach every LYNX process, so each
// backend publishes its pid and freeze name here.
struct SodaDirectory {
  struct Entry {
    soda::Pid pid;
    soda::Name freeze_name;
  };
  std::vector<Entry> processes;
};

struct SodaBackendParams {
  int discover_attempts = 3;  // before falling back to freeze
  std::size_t moved_cache_capacity = 64;
  bool enable_freeze_fallback = true;
};

class SodaBackend final : public Backend {
 public:
  SodaBackend(soda::Network& network, SodaDirectory& directory,
              net::NodeId node, SodaBackendParams params = {});
  ~SodaBackend() override;

  [[nodiscard]] std::string kernel_name() const override { return "soda"; }
  [[nodiscard]] Capabilities capabilities() const override {
    return Capabilities{
        .moves_multiple_links_in_one_message = true,
        .all_received_messages_wanted = true,
        .recovers_enclosures_on_abort = true,
        .detects_all_exceptions = true,
    };
  }

  void start(Sink sink) override;
  void shutdown() override;
  [[nodiscard]] sim::Task<std::pair<BLink, BLink>> make_link() override;
  [[nodiscard]] std::unique_ptr<PendingSend> begin_send(
      BLink link, WireMessage msg) override;
  void set_interest(BLink link, bool want_requests,
                    bool want_replies) override;
  void retract_reply_interest(BLink link) override;
  [[nodiscard]] sim::Task<void> destroy(BLink link) override;
  [[nodiscard]] std::uint64_t protocol_messages() const override {
    return stats_.requests_issued;
  }
  [[nodiscard]] std::uint32_t trace_node() const override {
    return node_.value();
  }

  [[nodiscard]] soda::Pid pid() const { return pid_; }

  struct Stats {
    std::uint64_t requests_issued = 0;
    std::uint64_t signals_posted = 0;
    std::uint64_t moved_redirects = 0;  // stragglers served from cache
    std::uint64_t hint_misses = 0;      // sends that needed re-routing
    std::uint64_t discover_searches = 0;
    std::uint64_t discover_failures = 0;
    std::uint64_t freeze_searches = 0;
    std::uint64_t unwanted_received = 0;  // stays 0: screening by accept
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  // Bootstrap: wire two processes together (loader fiat).
  [[nodiscard]] static sim::Task<std::pair<LinkHandle, LinkHandle>> connect(
      Process& a, Process& b);

 private:
  // accept / completion out-of-band codes (word 0)
  enum class Oop : std::uint32_t {
    kRequestMsg = 1,   // request oob: a LYNX request rides this put
    kReplyMsg = 2,     // request oob: a LYNX reply rides this put
    kSignal = 3,       // request oob: status signal (no data)
    kCancel = 4,       // request oob: revoke my earlier put (word1 = req)
    kFreeze = 5,       // request oob: freeze search (data = link name)
    kUnfreeze = 6,     // request oob: end of search
    kAcceptOk = 10,    // accept oob: message taken
    kDestroyed = 11,   // accept oob: the link is destroyed
    kMoved = 12,       // accept oob: end moved, word1 = new pid
    kReplyUnwanted = 13,  // accept oob: caller aborted (capability 4)
    kCancelled = 14,   // accept oob: your put was revoked at your ask
    kTooLate = 15,     // accept oob: cancel lost the race
    kHint = 16,        // accept oob (freeze): word1 = pid holding the end
    kNoHint = 17,      // accept oob (freeze): never heard of it
  };

  struct SLink {
    SLink(BLink t, soda::Name mine, soda::Name peer, soda::Pid hint)
        : token(t), my_name(mine), peer_name(peer), peer_hint(hint) {}
    BLink token;
    soda::Name my_name;
    soda::Name peer_name;
    soda::Pid peer_hint;
    bool want_requests = false;
    bool want_replies = false;
    bool reply_unwanted = false;  // aborted caller: bounce the next reply
    bool destroyed = false;
    std::deque<soda::ReqId> parked_requests;  // unaccepted LYNX requests
    std::deque<soda::ReqId> parked_signals;   // peer's status signals
    soda::ReqId signal_out;  // our outstanding status signal (if valid)
    // The caller answered our status signal with REPLY-UNWANTED: our
    // next reply must take the full kernel round trip so the peer's
    // authoritative reply_unwanted flag can bounce it (capability 4
    // survives the early reply resolve).  One-shot, like the flag.
    bool peer_reply_unwanted = false;
  };

  struct ParkedInfo {
    BLink link;
    Oop kind = Oop::kRequestMsg;
    soda::Pid from;
    std::size_t send_bytes = 0;
    std::uint64_t trace = 0;  // causal identity from the RequestInterrupt
  };

  struct OutSend {
    std::uint64_t id = 0;
    BLink link;
    MsgKind kind = MsgKind::kRequest;
    soda::Payload data;
    soda::ReqId req;               // current kernel request
    soda::Pid target;              // pid the request went to
    std::vector<BLink> enclosure_tokens;
    PendingSend* ps = nullptr;
    bool cancel_requested = false;
    // The LYNX thread was released before the kernel leg finished (the
    // early reply resolve, DESIGN.md §12); shutdown drains these.
    bool early_resolved = false;
    int reroutes = 0;
    std::uint64_t trace = 0;       // causal identity from the WireMessage
  };

  struct FreezeCollector {
    int expected = 0;
    std::optional<soda::Pid> hint;
    std::unique_ptr<sim::OneShot<int>> done;
  };

  [[nodiscard]] sim::Task<> pump();
  void on_interrupt(const soda::Interrupt& intr);
  void on_request(const soda::RequestInterrupt& r);
  void on_completion(const soda::CompletionInterrupt& c);
  void on_crash_or_reject(soda::ReqId req);
  [[nodiscard]] sim::Task<> issue_send(std::uint64_t out_id);
  void resolve_out(std::uint64_t out_id, SendOutcome outcome);
  void request_cancel(std::uint64_t out_id);
  [[nodiscard]] sim::Task<> issue_cancel(std::uint64_t out_id);
  // Takes a request or reply put and delivers it on `token`.
  [[nodiscard]] sim::Task<> accept_msg(BLink token, soda::ReqId req,
                                       MsgKind kind, std::uint64_t trace);
  [[nodiscard]] sim::Task<> accept_with(soda::ReqId req, Oop code,
                                        std::uint64_t word1);
  [[nodiscard]] sim::Task<> answer_freeze(soda::ReqId req, soda::Pid from);
  [[nodiscard]] sim::Task<> take_hint(soda::RequestInterrupt r);
  [[nodiscard]] sim::Task<> hint_fix_and_resend(std::uint64_t out_id);
  [[nodiscard]] sim::Task<std::optional<soda::Pid>> locate_peer(
      soda::Name peer_name);
  [[nodiscard]] sim::Task<std::optional<soda::Pid>> freeze_search(
      soda::Name peer_name);
  [[nodiscard]] sim::Task<> fix_signal(BLink token);
  [[nodiscard]] sim::Task<> finish_moves(BLink carrier,
                                         std::vector<BLink> moved,
                                         soda::Pid new_owner);
  [[nodiscard]] sim::Task<> deliver(SLink& link, MsgKind kind,
                                    const soda::Payload& raw,
                                    std::uint64_t trace);
  [[nodiscard]] sim::Task<> perform_destroy(BLink token);
  [[nodiscard]] sim::Task<> perform_shutdown();
  [[nodiscard]] sim::Task<> post_signal(BLink token);
  void maybe_accept_parked(SLink& link);
  void mark_destroyed(SLink& link);
  // Early-resolved replies whose kernel leg is still in flight.
  [[nodiscard]] bool has_unsettled_early() const;
  void note_drain_progress();
  [[nodiscard]] SLink* find(BLink token);
  [[nodiscard]] SLink* find_by_name(soda::Name name);
  void remember_move(soda::Name name, soda::Pid new_owner);
  // Where a recently-moved end went, if the cache still remembers.
  [[nodiscard]] std::optional<soda::Pid> moved_owner(soda::Name name) const;
  // Answers a put for an end we no longer hold: MOVED or DESTROYED.
  void answer_straggler(const soda::RequestInterrupt& r);

  soda::Network* network_;
  SodaDirectory* directory_;
  net::NodeId node_;
  SodaBackendParams params_;
  soda::Pid pid_;
  soda::Name freeze_name_;
  Sink sink_;
  bool running_ = false;
  // Shutdown drain: an early-resolved reply's OutSend may still be in
  // flight at the kernel when the runtime asks to shut down; terminating
  // then would strand the reply (terminate_process drops this process's
  // outstanding requests on the floor).  The pump keeps servicing
  // interrupts while draining_ until every early-resolved send settles.
  bool draining_ = false;
  std::unique_ptr<sim::WaitList> drained_;
  bool comm_ready_ = false;
  std::unique_ptr<sim::Gate> ready_;

  std::unordered_map<BLink, SLink> links_;
  std::unordered_map<soda::Name, BLink> by_name_;
  std::unordered_map<soda::ReqId, ParkedInfo> parked_;
  std::unordered_map<std::uint64_t, OutSend> outs_;
  std::unordered_map<soda::ReqId, std::uint64_t> out_by_req_;
  // signals we posted, keyed by kernel request id -> link
  std::unordered_map<soda::ReqId, BLink> signal_by_req_;
  // recently moved ends: name -> new owner (kept advertised)
  std::deque<std::pair<soda::Name, soda::Pid>> moved_cache_;
  int freeze_count_ = 0;
  std::unordered_map<soda::ReqId, FreezeCollector*> freeze_collects_;
  std::unordered_map<soda::Name, soda::Pid> async_hints_;
  common::IdAllocator<BLink> blink_ids_;
  std::uint64_t next_out_id_ = 1;
  Stats stats_;
};

[[nodiscard]] std::unique_ptr<SodaBackend> make_soda_backend(
    soda::Network& network, SodaDirectory& directory, net::NodeId node,
    SodaBackendParams params = {});

}  // namespace lynx

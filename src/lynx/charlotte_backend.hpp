// The Charlotte backend (paper §3.2).
//
// Every LYNX link is a Charlotte link.  Because the kernel's screening
// facilities cannot distinguish requests from replies on the same link,
// and because a kernel Send can enclose at most ONE link end, the
// run-time package needs a whole protocol of its own on top of the
// kernel's messages:
//
//   REQUEST / REPLY  — ordinary traffic;
//   RETRY            — negative ack: unwanted request returned when the
//                      receiver can drop its kernel Receive (the kernel
//                      then delays retransmissions);
//   FORBID / ALLOW   — unwanted request returned when the receiver must
//                      keep a Receive posted (a reply is expected):
//                      FORBID denies the peer the right to send requests
//                      (replies stay legal) until ALLOW restores it;
//   GOAHEAD          — multi-enclosure requests send their first packet
//                      (data + first enclosure) and wait for GOAHEAD
//                      before streaming the rest, so an unwanted request
//                      doesn't strand n-1 enclosures;
//   ENC              — one additional enclosure per packet (figure 2).
//
// The backend reproduces the paper's two semantic deviations:
//   * enclosures in aborted messages can be lost (a cancel that loses
//     the race, combined with peer failure, strands the moved end);
//   * a server replying to an aborted caller is NOT told (no exception:
//     that would need a top-level ack for replies, +50% traffic).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>

#include "charlotte/kernel.hpp"
#include "lynx/backend.hpp"
#include "lynx/runtime.hpp"

namespace lynx {

class CharlotteBackend final : public Backend {
 public:
  CharlotteBackend(charlotte::Cluster& cluster, net::NodeId node);
  ~CharlotteBackend() override;

  [[nodiscard]] std::string kernel_name() const override {
    return "charlotte";
  }
  [[nodiscard]] Capabilities capabilities() const override {
    return Capabilities{
        .moves_multiple_links_in_one_message = false,  // packetized
        .all_received_messages_wanted = false,         // retry/forbid
        .recovers_enclosures_on_abort = false,         // §3.2.2 deviation
        .detects_all_exceptions = false,               // reply-abort unseen
    };
  }

  void start(Sink sink) override;
  void shutdown() override;
  [[nodiscard]] sim::Task<std::pair<BLink, BLink>> make_link() override;
  [[nodiscard]] std::unique_ptr<PendingSend> begin_send(
      BLink link, WireMessage msg) override;
  void set_interest(BLink link, bool want_requests,
                    bool want_replies) override;
  void retract_reply_interest(BLink link) override;  // cannot help: no-op
  [[nodiscard]] sim::Task<void> destroy(BLink link) override;
  [[nodiscard]] std::uint64_t protocol_messages() const override {
    return stats_.packets_sent;
  }
  [[nodiscard]] std::uint32_t trace_node() const override {
    return node_.value();
  }

  [[nodiscard]] charlotte::Pid pid() const { return pid_; }

  // ---- protocol statistics (experiments E2/E4/E9) ----------------------
  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t requests_sent = 0;
    std::uint64_t replies_sent = 0;
    std::uint64_t retries_sent = 0;
    std::uint64_t forbids_sent = 0;
    std::uint64_t allows_sent = 0;
    std::uint64_t goaheads_sent = 0;
    std::uint64_t enc_packets_sent = 0;
    std::uint64_t unwanted_received = 0;
    std::uint64_t requests_returned = 0;  // our requests bounced back
    std::uint64_t enclosures_lost = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  // Bootstrap: wire two processes together (loader fiat).
  [[nodiscard]] static sim::Task<std::pair<LinkHandle, LinkHandle>> connect(
      Process& a, Process& b);

 private:
  enum class PType : std::uint8_t {
    kRequest = 0,
    kReply = 1,
    kRetry = 2,
    kForbid = 3,
    kAllow = 4,
    kGoahead = 5,
    kEnc = 6,
  };

  // A LYNX-level message in transmission.  Lives in the backend until
  // definitively delivered or failed (it can outlive its PendingSend:
  // a FORBID can bounce a request whose kernel sends were already
  // acknowledged, and the retransmission is the backend's business).
  struct OutMsg {
    std::uint64_t id;
    BLink link;
    MsgKind kind = MsgKind::kRequest;
    Bytes body;
    std::vector<charlotte::EndId> enclosure_ends;
    std::vector<BLink> enclosure_blinks;
    int next_enclosure = 0;      // how many already shipped
    bool awaiting_goahead = false;
    bool cancel_requested = false;
    PendingSend* ps = nullptr;  // null once resolved
    std::uint64_t trace = 0;     // causal identity from the WireMessage
  };

  // One kernel Send in flight or queued (Charlotte allows one
  // outstanding send activity per end).
  struct KSend {
    Bytes payload;
    charlotte::EndId enclosure = charlotte::EndId::invalid();
    std::uint64_t out_id = 0;    // owning OutMsg, 0 for control packets
    PType ptype = PType::kRequest;
    // Causal identity handed to the kernel Send; control packets carry
    // the trace of the message that provoked them.
    std::uint64_t trace = 0;
  };

  // Reassembly of an incoming multi-enclosure message.
  struct Assembly {
    MsgKind kind = MsgKind::kRequest;
    Bytes body;
    std::vector<BLink> enclosures;
    int expected = 0;
    std::uint64_t trace = 0;  // from the first packet of the message
  };

  struct CLink {
    BLink token;
    charlotte::EndId end;
    bool want_requests = false;
    bool want_replies = false;
    bool recv_posted = false;
    bool destroyed = false;
    bool forbade_peer = false;   // we owe the peer an ALLOW
    bool forbidden = false;      // peer denied us requests
    bool kernel_send_busy = false;
    std::deque<KSend> ksend_queue;
    std::uint64_t active_out = 0;       // OutMsg currently transmitting
    std::uint64_t last_request = 0;     // shipped request, may bounce
    std::deque<std::uint64_t> out_queue;        // LYNX sends waiting
    std::deque<std::uint64_t> deferred_requests;  // bounced, await ALLOW
    std::optional<Assembly> assembly;
  };

  [[nodiscard]] sim::Task<> pump();
  void dispatch_receive(const charlotte::Completion& c);
  void dispatch_send_done(const charlotte::Completion& c);
  void on_incoming(CLink& link, PType ptype, std::uint8_t enc_total,
                   Bytes body, charlotte::EndId enclosure,
                   std::uint64_t trace);
  void deliver(CLink& link, MsgKind kind, Bytes body,
               std::vector<BLink> enclosures, std::uint64_t trace);
  void start_next_out(CLink& link);
  void queue_ksend(CLink& link, KSend ks);
  void drain(CLink& link);
  void request_cancel(std::uint64_t out_id);
  [[nodiscard]] sim::Task<> run_ksend(BLink token);
  void update_receive_posting(CLink& link);
  [[nodiscard]] sim::Task<> post_receive(BLink token);
  [[nodiscard]] sim::Task<> cancel_receive(BLink token);
  [[nodiscard]] sim::Task<> issue_cancel(BLink token);
  void maybe_send_allow(CLink& link);
  void resolve(OutMsg& out, SendOutcome outcome);
  void fail_link(CLink& link);
  [[nodiscard]] CLink* find(BLink token);
  [[nodiscard]] CLink* find_by_end(charlotte::EndId end);
  [[nodiscard]] BLink adopt_end(charlotte::EndId end);
  [[nodiscard]] sim::Task<> perform_shutdown();
  // True while some kernel send is accepted-but-unsettled (or queued)
  // on a live link; shutdown drains these before destroying links.
  [[nodiscard]] bool has_unsettled_ksends() const;
  void note_drain_progress();

  charlotte::Cluster* cluster_;
  net::NodeId node_;
  charlotte::Pid pid_;
  Sink sink_;
  bool running_ = false;
  // Shutdown has been requested but kernel sends are still settling;
  // the pump keeps dispatching completions until the drain finishes.
  bool draining_ = false;
  sim::WaitList drained_;

  std::unordered_map<BLink, CLink> links_;
  std::unordered_map<charlotte::EndId, BLink> by_end_;
  std::unordered_map<std::uint64_t, OutMsg> out_msgs_;
  common::IdAllocator<BLink> blink_ids_;
  std::uint64_t next_out_id_ = 1;
  Stats stats_;
};

[[nodiscard]] std::unique_ptr<CharlotteBackend> make_charlotte_backend(
    charlotte::Cluster& cluster, net::NodeId node);

}  // namespace lynx

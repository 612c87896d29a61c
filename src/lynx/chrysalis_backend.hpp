// The Chrysalis backend (paper §5.2).
//
// Every process allocates ONE dual queue and ONE event block through
// which it hears about messages sent and received.  A link is a memory
// object mapped by the two connected processes, holding buffer space for
// a single request and a single reply in each direction, a set of flag
// bits, and the dual-queue names of both side owners.
//
// The hint discipline is the paper's: notices on dual queues are HINTS
// (cheap, possibly stale, possibly dropped on the floor); the flag bits
// in the link object are ABSOLUTE.  Whenever a process dequeues a notice
// it checks that it still owns the mentioned end and that the flag is
// really set; stale notices are discarded.  Every flag change is
// eventually covered by a notice, but not every notice reflects a flag.
//
// Moving a link: pass the (address-space-independent) object name in a
// message; the receiver maps the object, writes its own dual-queue name
// — NON-atomically, safe because it completes the write before
// inspecting flags — and self-notices any flags already set.
#pragma once

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "chrysalis/kernel.hpp"
#include "lynx/backend.hpp"

namespace lynx {

class ChrysalisBackend final : public Backend {
 public:
  ChrysalisBackend(chrysalis::Kernel& kernel, net::NodeId node);
  ~ChrysalisBackend() override;

  [[nodiscard]] std::string kernel_name() const override {
    return "chrysalis";
  }
  [[nodiscard]] Capabilities capabilities() const override {
    return Capabilities{
        .moves_multiple_links_in_one_message = true,
        .all_received_messages_wanted = true,
        .recovers_enclosures_on_abort = true,
        .detects_all_exceptions = true,
    };
  }

  [[nodiscard]] sim::Task<std::pair<BLink, BLink>> make_link() override;
  [[nodiscard]] sim::Task<std::pair<BLink, BLink>> bootstrap_link(
      Backend& peer) override;
  [[nodiscard]] std::unique_ptr<PendingSend> begin_send(
      BLink link, WireMessage msg) override;
  void set_interest(BLink link, bool want_requests,
                    bool want_replies) override;
  void retract_reply_interest(BLink link) override;
  [[nodiscard]] sim::Task<void> destroy(BLink link) override;
  [[nodiscard]] std::uint64_t protocol_messages() const override {
    return notices_;
  }
  [[nodiscard]] chrysalis::Pid pid() const { return pid_; }

 private:
  // A send parked until the CONSUMED notice (or destruction) settles it.
  struct PendingOut {
    PendingSend* ps = nullptr;
    std::vector<BLink> enclosures;  // ends riding it, dropped on delivery
  };
  struct LinkRec {
    BLink token;
    chrysalis::MemId obj;
    std::uint8_t side = 0;  // 0 = A, 1 = B
    bool want_requests = false;
    bool want_replies = false;
    bool destroyed = false;
    PendingOut out_req;
    PendingOut out_rep;
    // A CONSUMED notice we owe the peer for their request, deferred by
    // kConsumedCoalesceDelay in the hope our reply makes it redundant.
    bool consumed_owed = false;
    int consumed_slot = -1;
    std::uint64_t consumed_trace = 0;
    sim::TimerHandle consumed_timer;
  };

  [[nodiscard]] sim::Task<> pump() override;
  // Posts the CONSUMED notices still owed, then destroys every link.
  [[nodiscard]] sim::Task<> perform_shutdown() override;
  [[nodiscard]] sim::Task<> maybe_consume(chrysalis::MemId obj, int slot);
  [[nodiscard]] sim::Task<> consume_incoming(chrysalis::MemId obj, int slot);
  void handle_consumed(chrysalis::MemId obj, int slot);
  [[nodiscard]] sim::Task<> post_deferred_consumed(BLink token);
  // Posts the CONSUMED notice for `slot` to the sending side's queue.
  [[nodiscard]] sim::Task<> post_consumed(chrysalis::MemId obj,
                                          std::uint8_t sender_side, int slot);
  [[nodiscard]] sim::Task<> handle_destroyed_notice(chrysalis::MemId obj);
  [[nodiscard]] sim::Task<> perform_send(BLink link, WireMessage msg,
                                         PendingSend* ps);
  [[nodiscard]] sim::Task<> perform_cancel(BLink link, MsgKind kind,
                                           PendingSend* ps);
  [[nodiscard]] sim::Task<> perform_destroy_bits(chrysalis::MemId obj,
                                                 std::uint8_t side);
  [[nodiscard]] sim::Task<> recheck_link(chrysalis::MemId obj);
  [[nodiscard]] sim::Task<> unmap_object(chrysalis::MemId obj);
  // Every hint leaves through here: one counted Kernel::enqueue.  The
  // shutdown poison bypasses it, since it is not a protocol message.
  [[nodiscard]] sim::Task<> post_notice(chrysalis::DqId dq,
                                        std::uint32_t datum);
  [[nodiscard]] sim::Task<> set_unwanted_bit(chrysalis::MemId obj,
                                             std::uint8_t side);
  [[nodiscard]] LinkRec* side_rec(chrysalis::MemId obj, std::uint8_t side);
  [[nodiscard]] LinkRec* find(BLink link);
  // Settles the sends parked on `rec` kLinkDestroyed.
  static void fail_sends(LinkRec& rec);
  // Records an end of `obj` this process now holds; returns its token.
  BLink adopt_end(chrysalis::MemId obj, std::uint8_t side);
  void unindex_link(const LinkRec& rec);

  chrysalis::Kernel* kernel_;
  chrysalis::Pid pid_;

  // Opens once the pump has made the dual queue and event block.
  sim::Gate ready_;
  chrysalis::DqId my_dq_;
  chrysalis::EventId my_event_;

  std::unordered_map<BLink, LinkRec> links_;
  std::unordered_map<chrysalis::MemId, std::array<BLink, 2>> by_obj_;
  std::uint64_t notices_ = 0;
};

[[nodiscard]] std::unique_ptr<ChrysalisBackend> make_chrysalis_backend(
    chrysalis::Kernel& kernel, net::NodeId node);

}  // namespace lynx

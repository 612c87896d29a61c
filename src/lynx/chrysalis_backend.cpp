#include "lynx/chrysalis_backend.hpp"

#include <array>
#include <cstring>
#include <string>
#include <utility>

#include "lynx/codec.hpp"
#include "lynx/errors.hpp"
#include "trace/trace.hpp"

namespace lynx {

namespace {

// flag bits
[[nodiscard]] constexpr std::uint16_t slot_bit(int slot) {
  return static_cast<std::uint16_t>(1u << slot);
}
[[nodiscard]] constexpr std::uint16_t destroyed_bit(std::uint8_t side) {
  return static_cast<std::uint16_t>(1u << (4 + side));
}
[[nodiscard]] constexpr std::uint16_t unwanted_bit(std::uint8_t side) {
  return static_cast<std::uint16_t>(1u << (6 + side));
}

// slots: 0 = REQ A->B, 1 = REP A->B, 2 = REQ B->A, 3 = REP B->A
[[nodiscard]] constexpr int out_slot(std::uint8_t side, MsgKind kind) {
  const int base = (side == 0) ? 0 : 2;
  return base + (kind == MsgKind::kReply ? 1 : 0);
}
[[nodiscard]] constexpr std::uint8_t receiver_side_of_slot(int slot) {
  return (slot <= 1) ? 1 : 0;
}
[[nodiscard]] constexpr bool slot_is_reply(int slot) {
  return (slot % 2) == 1;
}

// notice codes
constexpr std::uint32_t kCodeFilledBase = 0;   // 0..3
constexpr std::uint32_t kCodeConsumedBase = 4; // 4..7
constexpr std::uint32_t kCodeDestroyed = 8;
constexpr std::uint32_t kCodeRecheck = 13;
constexpr std::uint32_t kCodePoison = 15;

[[nodiscard]] constexpr std::uint32_t make_notice(chrysalis::MemId obj,
                                                  std::uint32_t code) {
  return static_cast<std::uint32_t>(obj.value() << 4) | code;
}

// Batched dual-queue drains (DESIGN.md §12): each pump wakeup services
// up to this many ready notices through one Kernel::dequeue_many
// dispatch instead of paying a full dq_dequeue per notice.
constexpr std::size_t kDrainMaxNotices = 16;

// Notices one process's dual queue holds; enqueue past it is kQueueFull.
constexpr std::size_t kDualQueueCapacity = 64;

// Consumed-notice coalescing (DESIGN.md §12): after consuming a request
// we owe the sender a CONSUMED notice — but if our reply goes out within
// this delay, the reply's FILLED notice proves consumption (RPC
// ordering) and the standalone notice is skipped.
constexpr sim::Duration kConsumedCoalesceDelay = sim::msec(2);

// object header offsets
constexpr std::size_t kOffFlags = 0;
constexpr std::size_t kOffDqA = 4;
constexpr std::size_t kOffDqB = 8;
constexpr std::size_t kOffSlots = 16;

// Per-direction, per-kind buffer size: a slot is a u32 length word plus
// this many bytes.
constexpr std::size_t kMaxMessageBytes = 2048;
constexpr std::size_t kObjectSize = kOffSlots + 4 * (4 + kMaxMessageBytes);

[[nodiscard]] constexpr std::size_t dq_offset(std::uint8_t side) {
  return side == 0 ? kOffDqA : kOffDqB;
}
[[nodiscard]] constexpr std::size_t slot_offset(int slot) {
  return kOffSlots + static_cast<std::size_t>(slot) * (4 + kMaxMessageBytes);
}

// buffer content: u32 body_len | body | u8 enc_count | per enc (u64 obj,
// u8 side) | u64 trace.  The trailing trace word carries the causal
// identity through the shared-memory link object: Chrysalis has no
// network frame to stamp, so it rides in the buffer encoding itself.
[[nodiscard]] constexpr std::size_t buffer_size(std::size_t body,
                                                std::size_t encs) {
  return 4 + body + 1 + 9 * encs + 8;
}

}  // namespace

// ===================== backend =====================

ChrysalisBackend::ChrysalisBackend(chrysalis::Kernel& kernel,
                                   net::NodeId node)
    : Backend(kernel.engine(), node),
      kernel_(&kernel),
      pid_(kernel.create_process(node)),
      ready_(kernel.engine()) {}

ChrysalisBackend::~ChrysalisBackend() {
  for (auto& [token, rec] : links_) rec.consumed_timer.cancel();
}

sim::Task<> ChrysalisBackend::post_notice(chrysalis::DqId dq,
                                          std::uint32_t datum) {
  ++notices_;
  (void)co_await kernel_->enqueue(pid_, dq, datum);
}

sim::Task<> ChrysalisBackend::pump() {
  // One dual queue + one event block per process (paper §5.2 opening).
  {
    auto dq = co_await kernel_->make_dual_queue(pid_, kDualQueueCapacity);
    RELYNX_ASSERT(dq.ok());
    my_dq_ = dq.value();
    auto ev = co_await kernel_->make_event(pid_);
    RELYNX_ASSERT(ev.ok());
    my_event_ = ev.value();
    ready_.open();
  }
  for (;;) {
    // Batched drain: one dequeue_many dispatch services every ready
    // notice; an empty queue falls back to a bare event wait (the
    // dequeue left our event name — or the cheap flag — behind).
    std::vector<std::uint32_t> batch;
    auto got = co_await kernel_->dequeue_many(pid_, my_dq_, my_event_,
                                              kDrainMaxNotices);
    if (!got.ok()) break;
    if (got.value().would_block) {
      auto datum = co_await kernel_->wait_event(pid_, my_event_);
      if (!datum.ok()) break;
      batch.push_back(datum.value());
    } else {
      batch = std::move(got.value().data);
    }
    bool poisoned = false;
    for (const std::uint32_t raw : batch) {
      const std::uint32_t code = raw & 15u;
      const chrysalis::MemId obj(raw >> 4);
      if (code == kCodePoison) {
        poisoned = true;
        break;
      }
      switch (code) {
        case kCodeRecheck:
          co_await recheck_link(obj);
          break;
        case kCodeDestroyed: {
          co_await handle_destroyed_notice(obj);
          break;
        }
        default: {
          if (code >= kCodeConsumedBase && code < kCodeConsumedBase + 4) {
            handle_consumed(obj, static_cast<int>(code - kCodeConsumedBase));
          } else if (code < 4) {
            co_await maybe_consume(obj, static_cast<int>(code));
          }
          break;
        }
      }
    }
    if (poisoned) break;
  }
}

ChrysalisBackend::LinkRec* ChrysalisBackend::side_rec(chrysalis::MemId obj,
                                                      std::uint8_t side) {
  auto it = by_obj_.find(obj);
  if (it == by_obj_.end()) return nullptr;
  const BLink token = it->second[side];
  if (!token.valid()) return nullptr;
  return find(token);
}

ChrysalisBackend::LinkRec* ChrysalisBackend::find(BLink link) {
  auto it = links_.find(link);
  return it == links_.end() ? nullptr : &it->second;
}

BLink ChrysalisBackend::adopt_end(chrysalis::MemId obj, std::uint8_t side) {
  const BLink token = next_blink();
  LinkRec rec;
  rec.token = token;
  rec.obj = obj;
  rec.side = side;
  links_.emplace(token, std::move(rec));
  by_obj_[obj][side] = token;
  return token;
}

void ChrysalisBackend::unindex_link(const LinkRec& rec) {
  auto it = by_obj_.find(rec.obj);
  if (it == by_obj_.end()) return;
  it->second[rec.side] = BLink::invalid();
  if (!it->second[0].valid() && !it->second[1].valid()) by_obj_.erase(it);
}

sim::Task<std::pair<BLink, BLink>> ChrysalisBackend::make_link() {
  co_await ready_.wait();
  auto obj = co_await kernel_->make_object(pid_, kObjectSize);
  RELYNX_ASSERT(obj.ok());
  // Both sides' dual-queue names start as ours.
  (void)co_await kernel_->write32(pid_, obj.value(), kOffDqA,
                                  static_cast<std::uint32_t>(my_dq_.value()));
  (void)co_await kernel_->write32(pid_, obj.value(), kOffDqB,
                                  static_cast<std::uint32_t>(my_dq_.value()));
  const BLink a = adopt_end(obj.value(), 0);
  co_return std::pair(a, adopt_end(obj.value(), 1));
}

std::unique_ptr<PendingSend> ChrysalisBackend::begin_send(BLink link,
                                                          WireMessage msg) {
  // The whole encoded message must fit the link's per-direction buffer
  // (buffer_size); refuse it before any slot or notice moves, so the
  // link stays usable for a smaller message.
  const std::size_t encoded =
      buffer_size(msg.body.size(), msg.enclosures.size());
  if (encoded > kMaxMessageBytes) {
    throw LynxError(ErrorKind::kMessageTooLarge,
                    std::to_string(encoded) + " bytes exceed the " +
                        std::to_string(kMaxMessageBytes) +
                        "-byte link buffer");
  }
  const MsgKind kind = msg.kind;
  auto ps = std::make_unique<PendingSend>(
      engine(), [this, link, kind](PendingSend& self) {
        engine().spawn("chrysalis-cancel",
                                perform_cancel(link, kind, &self));
      });
  engine().spawn("chrysalis-send",
                          perform_send(link, std::move(msg), ps.get()));
  return ps;
}

sim::Task<> ChrysalisBackend::perform_send(BLink link, WireMessage msg,
                                           PendingSend* ps) {
  LinkRec* rec = find(link);
  if (rec == nullptr || rec->destroyed) {
    ps->settle(SendOutcome{SendResult::kLinkDestroyed, {}});
    co_return;
  }
  const chrysalis::MemId obj = rec->obj;
  const std::uint8_t side = rec->side;
  const std::uint8_t peer = side ^ 1;
  const int slot = out_slot(side, msg.kind);

  // The ack rides the reply (DESIGN.md §12): our reply's FILLED notice
  // proves the request was consumed, so a still-deferred CONSUMED
  // notice for it is redundant — drop it before it fires.
  if (msg.kind == MsgKind::kReply && rec->consumed_owed) {
    rec->consumed_timer.cancel();
    rec->consumed_owed = false;
    if (auto* trec = trace::get(engine())) {
      trec->instant(trace_node(), "backend", "notice.piggyback",
                    rec->consumed_trace,
                    static_cast<std::uint64_t>(rec->consumed_slot), 0);
    }
  }

  // Capability (4): an aborted caller set the "reply unwanted" bit; the
  // replier feels the language-defined exception instead of sending.
  if (msg.kind == MsgKind::kReply) {
    auto flags = co_await kernel_->read16(pid_, obj, kOffFlags);
    if (!flags.ok()) {
      ps->settle(SendOutcome{SendResult::kLinkDestroyed, {}});
      co_return;
    }
    if (flags.value() & unwanted_bit(peer)) {
      (void)co_await kernel_->fetch_and16(
          pid_, obj, kOffFlags,
          static_cast<std::uint16_t>(~unwanted_bit(peer)));
      ps->settle(SendOutcome{SendResult::kReplyUnwanted, {}});
      co_return;
    }
  }

  // One block transfer covers the slot's length word and the buffer —
  // the flag bit (set below) is what publishes the slot, so the
  // combined write needs no internal ordering.  The length word is in
  // host order: the receiver reads it in place with read32.
  const auto len = static_cast<std::uint32_t>(
      buffer_size(msg.body.size(), msg.enclosures.size()));
  std::array<std::uint8_t, 4> word;
  std::memcpy(word.data(), &len, 4);
  codec::Writer w(4 + len);
  w.bytes(word).blob(msg.body).u8(
      static_cast<std::uint8_t>(msg.enclosures.size()));
  for (BLink e : msg.enclosures) {
    LinkRec* er = find(e);
    RELYNX_ASSERT_MSG(er != nullptr, "enclosure token unknown");
    w.u64(er->obj.value()).u8(er->side);
  }
  const Bytes filled = w.u64(msg.trace_id).finish();
  (void)co_await kernel_->block_write(pid_, obj, slot_offset(slot), filled);
  if (auto* rec2 = trace::get(engine())) {
    rec2->instant(trace_node(), "backend", "slot.fill", msg.trace_id,
                  static_cast<std::uint64_t>(slot), len);
  }
  // Set the flag FIRST, then read the peer's dual-queue name: this
  // ordering (against the mover's write-name-then-inspect-flags) is what
  // makes the non-atomic name update safe (paper §5.2).
  (void)co_await kernel_->fetch_or16(pid_, obj, kOffFlags, slot_bit(slot));
  auto dq_name = co_await kernel_->read32(pid_, obj, dq_offset(peer));
  if (dq_name.ok()) {
    co_await post_notice(
        chrysalis::DqId(dq_name.value()),
        make_notice(obj, kCodeFilledBase + static_cast<std::uint32_t>(slot)));
  }
  // Early reply resolve: the flag bit is absolute truth and shared
  // memory keeps the buffer until the consumer reads it.
  if (resolves_early(msg.kind, msg.enclosures.size())) {
    ps->settle(SendOutcome{SendResult::kDelivered, {}});
    co_return;
  }
  // Park until the consumed notice (or destruction) resolves it.
  rec = find(link);
  if (rec == nullptr) {
    ps->settle(SendOutcome{SendResult::kLinkDestroyed, {}});
    co_return;
  }
  PendingOut& out = msg.kind == MsgKind::kReply ? rec->out_rep : rec->out_req;
  out.ps = ps;
  out.enclosures = std::move(msg.enclosures);
}

void ChrysalisBackend::handle_consumed(chrysalis::MemId obj, int slot) {
  // The consumed slot is OUR outgoing slot iff we own the sending side.
  const std::uint8_t sender_side = (slot <= 1) ? 0 : 1;
  LinkRec* rec = side_rec(obj, sender_side);
  if (rec == nullptr) return;  // stale hint
  PendingOut& out = slot_is_reply(slot) ? rec->out_rep : rec->out_req;
  PendingSend* ps = out.ps;
  if (ps == nullptr) return;  // stale hint
  out.ps = nullptr;
  // Delivered: the moved ends now belong to the receiver.  Unmap the
  // object only if we hold no other end of it (we might own both ends
  // of a fresh link and have sent just one).
  for (BLink e : std::exchange(out.enclosures, {})) {
    if (LinkRec* er = find(e)) {
      const chrysalis::MemId eobj = er->obj;
      unindex_link(*er);
      links_.erase(e);
      if (by_obj_.find(eobj) == by_obj_.end()) {
        engine().spawn("chrysalis-unmap", unmap_object(eobj));
      }
    }
  }
  ps->settle(SendOutcome{SendResult::kDelivered, {}});
}

sim::Task<> ChrysalisBackend::post_deferred_consumed(BLink token) {
  // The coalesce window expired with no reply to ride: post the
  // standalone CONSUMED notice after all.
  LinkRec* rec = find(token);
  if (rec == nullptr || rec->destroyed || !rec->consumed_owed) co_return;
  rec->consumed_owed = false;
  co_await post_consumed(rec->obj, rec->side ^ 1, rec->consumed_slot);
}

sim::Task<> ChrysalisBackend::post_consumed(chrysalis::MemId obj,
                                            std::uint8_t sender_side,
                                            int slot) {
  auto dq_name = co_await kernel_->read32(pid_, obj, dq_offset(sender_side));
  if (dq_name.ok()) {
    co_await post_notice(
        chrysalis::DqId(dq_name.value()),
        make_notice(obj, kCodeConsumedBase + static_cast<std::uint32_t>(slot)));
  }
}

sim::Task<> ChrysalisBackend::unmap_object(chrysalis::MemId obj) {
  (void)co_await kernel_->unmap(pid_, obj);
}

sim::Task<> ChrysalisBackend::maybe_consume(chrysalis::MemId obj, int slot) {
  const std::uint8_t recv_side = receiver_side_of_slot(slot);
  LinkRec* rec = side_rec(obj, recv_side);
  if (rec == nullptr || rec->destroyed) co_return;  // stale hint
  // Screening in the application layer: requests stay parked in the
  // buffer (flag set, not consumed) until the runtime wants them.
  if (!slot_is_reply(slot) && !rec->want_requests) co_return;
  co_await consume_incoming(obj, slot);
}

sim::Task<> ChrysalisBackend::consume_incoming(chrysalis::MemId obj,
                                               int slot) {
  const std::uint8_t recv_side = receiver_side_of_slot(slot);
  LinkRec* rec = side_rec(obj, recv_side);
  if (rec == nullptr) co_return;
  const BLink token = rec->token;
  // The flag is the absolute truth: verify before acting on the hint.
  auto flags = co_await kernel_->read16(pid_, obj, kOffFlags);
  if (!flags.ok() || (flags.value() & slot_bit(slot)) == 0) co_return;

  auto len = co_await kernel_->read32(pid_, obj, slot_offset(slot));
  if (!len.ok()) co_return;
  auto raw = co_await kernel_->block_read(pid_, obj, slot_offset(slot) + 4,
                                          len.value());
  if (!raw.ok()) co_return;
  (void)co_await kernel_->fetch_and16(
      pid_, obj, kOffFlags, static_cast<std::uint16_t>(~slot_bit(slot)));
  codec::Reader r(raw.value());  // perform_send's buffer
  const auto body = r.blob();
  std::vector<std::pair<chrysalis::MemId, std::uint8_t>> encs(r.u8());
  for (auto& [eobj, eside] : encs) {
    eobj = chrysalis::MemId(r.u64());
    eside = r.u8();
  }
  const std::uint64_t trace_id = r.u64();
  // Ack the producer (DESIGN.md §12):
  //  * enclosure-free replies: the sender resolved early at the flag
  //    write — nobody is parked on the hint, skip the dq round trip;
  //  * replies generally: their arrival proves our own request on this
  //    link was consumed (RPC ordering), so settle the parked request
  //    send now — its CONSUMED notice may have been piggybacked away;
  //  * requests: defer the CONSUMED notice by kConsumedCoalesceDelay —
  //    if our reply beats the timer, the notice is never posted;
  //  * requests whose end vanished during the reads above: nobody is
  //    left to reply, so post the notice now.
  const std::uint8_t sender_side = recv_side ^ 1;
  if (slot_is_reply(slot)) {
    handle_consumed(obj, recv_side == 0 ? 0 : 2);
    if (!encs.empty()) co_await post_consumed(obj, sender_side, slot);
  } else if (rec = side_rec(obj, recv_side);  // re-find: awaits may rehash
             rec != nullptr && !rec->destroyed) {
    const BLink owed_token = rec->token;
    if (rec->consumed_owed) rec->consumed_timer.cancel();
    rec->consumed_owed = true;
    rec->consumed_slot = slot;
    rec->consumed_trace = trace_id;
    rec->consumed_timer = engine().schedule_cancellable(
        kConsumedCoalesceDelay, [this, owed_token] {
          engine().spawn("chrysalis-consumed",
                                  post_deferred_consumed(owed_token));
        });
  } else {
    co_await post_consumed(obj, sender_side, slot);
  }
  if (auto* trec = trace::get(engine())) {
    trec->instant(trace_node(), "backend", "slot.consume", trace_id,
                  static_cast<std::uint64_t>(slot), raw.value().size());
  }
  // Install moved ends: map, write our dual-queue name (non-atomic),
  // THEN inspect flags and self-notice anything already set.
  std::vector<BLink> enclosures;
  for (const auto& [eobj, eside] : encs) {
    (void)co_await kernel_->map(pid_, eobj);
    (void)co_await kernel_->write32(
        pid_, eobj, dq_offset(eside),
        static_cast<std::uint32_t>(my_dq_.value()));
    enclosures.push_back(adopt_end(eobj, eside));
    auto eflags = co_await kernel_->read16(pid_, eobj, kOffFlags);
    if (eflags.ok()) {
      for (int s = 0; s < 4; ++s) {
        if (receiver_side_of_slot(s) == eside &&
            (eflags.value() & slot_bit(s))) {
          co_await post_notice(
              my_dq_,
              make_notice(eobj,
                          kCodeFilledBase + static_cast<std::uint32_t>(s)));
        }
      }
      if (eflags.value() & destroyed_bit(eside ^ 1)) {
        co_await post_notice(my_dq_, make_notice(eobj, kCodeDestroyed));
      }
    }
  }

  upcall_arrival(token,
                 slot_is_reply(slot) ? MsgKind::kReply : MsgKind::kRequest,
                 Bytes(body.begin(), body.end()), std::move(enclosures),
                 trace_id);
}

sim::Task<> ChrysalisBackend::recheck_link(chrysalis::MemId obj) {
  for (std::uint8_t side = 0; side < 2; ++side) {
    LinkRec* rec = side_rec(obj, side);
    if (rec == nullptr || rec->destroyed) continue;
    auto flags = co_await kernel_->read16(pid_, obj, kOffFlags);
    if (!flags.ok()) continue;
    for (int s = 0; s < 4; ++s) {
      if (receiver_side_of_slot(s) != side) continue;
      if ((flags.value() & slot_bit(s)) == 0) continue;
      co_await maybe_consume(obj, s);
    }
    if (flags.value() & destroyed_bit(side ^ 1)) {
      co_await handle_destroyed_notice(obj);
    }
  }
}

sim::Task<> ChrysalisBackend::handle_destroyed_notice(chrysalis::MemId obj) {
  for (std::uint8_t side = 0; side < 2; ++side) {
    LinkRec* rec = side_rec(obj, side);
    if (rec == nullptr || rec->destroyed) continue;
    auto flags = co_await kernel_->read16(pid_, obj, kOffFlags);
    if (!flags.ok()) {
      // object reclaimed already: treat as destroyed
    } else if ((flags.value() & destroyed_bit(side ^ 1)) == 0) {
      continue;  // stale hint
    }
    rec->destroyed = true;
    fail_sends(*rec);
    upcall_destroyed(rec->token);
    const chrysalis::MemId dead_obj = rec->obj;
    unindex_link(*rec);
    links_.erase(rec->token);
    (void)co_await kernel_->unmap(pid_, dead_obj);
  }
}

sim::Task<> ChrysalisBackend::perform_cancel(BLink link, MsgKind kind,
                                             PendingSend* ps) {
  LinkRec* rec = find(link);
  if (rec == nullptr || ps->settled()) co_return;
  const int slot = out_slot(rec->side, kind);
  // Revoke if the peer has not consumed it yet: clear the flag.
  auto old = co_await kernel_->fetch_and16(
      pid_, rec->obj, kOffFlags,
      static_cast<std::uint16_t>(~slot_bit(slot)));
  rec = find(link);
  if (rec == nullptr || ps->settled()) co_return;
  PendingOut& out = kind == MsgKind::kReply ? rec->out_rep : rec->out_req;
  if (old.ok() && (old.value() & slot_bit(slot))) {
    // We won the race; the enclosures were never installed remotely, so
    // nothing is lost (capability 3).
    if (out.ps == ps) out.ps = nullptr;
    ps->settle(SendOutcome{SendResult::kCancelled, {}});
  }
  // else: consumed already; the consumed notice will settle kDelivered.
}

void ChrysalisBackend::set_interest(BLink link, bool want_requests,
                                    bool want_replies) {
  LinkRec* rec = find(link);
  if (rec == nullptr) return;
  const bool newly_interested = want_requests && !rec->want_requests;
  rec->want_requests = want_requests;
  rec->want_replies = want_replies;
  if (newly_interested && ready_.is_open()) {
    // Self-hint: re-scan the absolute flags for parked requests.
    engine().spawn("chrysalis-recheck",
                   post_notice(my_dq_, make_notice(rec->obj, kCodeRecheck)));
  }
}

void ChrysalisBackend::retract_reply_interest(BLink link) {
  LinkRec* rec = find(link);
  if (rec == nullptr || rec->destroyed) return;
  engine().spawn("chrysalis-retract",
                          set_unwanted_bit(rec->obj, rec->side));
}

sim::Task<> ChrysalisBackend::set_unwanted_bit(chrysalis::MemId obj,
                                               std::uint8_t side) {
  (void)co_await kernel_->fetch_or16(pid_, obj, kOffFlags,
                                     unwanted_bit(side));
}

sim::Task<void> ChrysalisBackend::destroy(BLink link) {
  LinkRec* rec = find(link);
  if (rec == nullptr) co_return;
  const chrysalis::MemId obj = rec->obj;
  const std::uint8_t side = rec->side;
  rec->destroyed = true;
  fail_sends(*rec);
  unindex_link(*rec);
  links_.erase(link);
  co_await perform_destroy_bits(obj, side);
}

sim::Task<> ChrysalisBackend::perform_destroy_bits(chrysalis::MemId obj,
                                                   std::uint8_t side) {
  (void)co_await kernel_->fetch_or16(pid_, obj, kOffFlags,
                                     destroyed_bit(side));
  auto dq_name = co_await kernel_->read32(pid_, obj, dq_offset(side ^ 1));
  if (dq_name.ok()) {
    co_await post_notice(chrysalis::DqId(dq_name.value()),
                         make_notice(obj, kCodeDestroyed));
  }
  kernel_->release_when_unreferenced(obj);
  (void)co_await kernel_->unmap(pid_, obj);
}

void ChrysalisBackend::fail_sends(LinkRec& rec) {
  for (PendingOut* out : {&rec.out_req, &rec.out_rep}) {
    if (out->ps == nullptr) continue;
    out->ps->settle(SendOutcome{SendResult::kLinkDestroyed, {}});
    out->ps = nullptr;
  }
}

sim::Task<> ChrysalisBackend::perform_shutdown() {
  // Settle deferred CONSUMED notices before the links go away: the
  // peer's request send is still parked on them.
  std::vector<BLink> owed;
  for (auto& [token, rec] : links_) {
    if (rec.consumed_owed) {
      rec.consumed_timer.cancel();
      owed.push_back(token);
    }
  }
  for (const BLink token : owed) co_await post_deferred_consumed(token);
  // "Before terminating, each process destroys all of its links."
  std::vector<std::pair<chrysalis::MemId, std::uint8_t>> to_destroy;
  for (auto& [token, rec] : links_) {
    if (!rec.destroyed) to_destroy.emplace_back(rec.obj, rec.side);
  }
  links_.clear();
  by_obj_.clear();
  for (const auto& [obj, side] : to_destroy) {
    co_await perform_destroy_bits(obj, side);
  }
  if (ready_.is_open()) {
    (void)co_await kernel_->enqueue(pid_, my_dq_,
                                    make_notice(chrysalis::MemId(0),
                                                kCodePoison));
  }
}

// ===================== bootstrap =====================

sim::Task<std::pair<BLink, BLink>> ChrysalisBackend::bootstrap_link(
    Backend& peer) {
  auto& other = static_cast<ChrysalisBackend&>(peer);
  RELYNX_ASSERT_MSG(kernel_ == other.kernel_, "same Butterfly required");
  co_await ready_.wait();
  co_await other.ready_.wait();
  auto obj = co_await kernel_->make_object(pid_, kObjectSize);
  RELYNX_ASSERT(obj.ok());
  (void)co_await kernel_->map(other.pid_, obj.value());
  (void)co_await kernel_->write32(pid_, obj.value(), kOffDqA,
                                  static_cast<std::uint32_t>(my_dq_.value()));
  (void)co_await kernel_->write32(
      other.pid_, obj.value(), kOffDqB,
      static_cast<std::uint32_t>(other.my_dq_.value()));
  const BLink mine = adopt_end(obj.value(), 0);
  co_return std::pair(mine, other.adopt_end(obj.value(), 1));
}

std::unique_ptr<ChrysalisBackend> make_chrysalis_backend(
    chrysalis::Kernel& kernel, net::NodeId node) {
  return std::make_unique<ChrysalisBackend>(kernel, node);
}

}  // namespace lynx

#include "lynx/soda_backend.hpp"

#include <algorithm>

namespace lynx {

namespace {

constexpr std::size_t kBigBuffer = 64 * 1024;

// put data layout: [u8 n_enc][per enc: u64 my_name, u64 peer_name,
// u32 hint_pid][body...]
soda::Payload encode_put(const Bytes& body,
                         const std::vector<std::array<std::uint64_t, 3>>&
                             encs) {
  soda::Payload out;
  out.reserve(1 + encs.size() * 20 + body.size());
  out.push_back(static_cast<std::uint8_t>(encs.size()));
  for (const auto& e : encs) {
    for (int w = 0; w < 2; ++w) {
      for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::uint8_t>(e[static_cast<std::size_t>(w)] >> (8 * i)));
      }
    }
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(e[2] >> (8 * i)));
    }
  }
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

struct DecodedPut {
  Bytes body;
  std::vector<std::array<std::uint64_t, 3>> encs;
};

DecodedPut decode_put(const soda::Payload& raw) {
  DecodedPut out;
  RELYNX_ASSERT(!raw.empty());
  std::size_t pos = 0;
  const std::uint8_t n = raw[pos++];
  for (std::uint8_t k = 0; k < n; ++k) {
    RELYNX_ASSERT(pos + 20 <= raw.size());
    std::array<std::uint64_t, 3> e{};
    for (int w = 0; w < 2; ++w) {
      for (int i = 0; i < 8; ++i) {
        e[static_cast<std::size_t>(w)] |=
            static_cast<std::uint64_t>(raw[pos++]) << (8 * i);
      }
    }
    for (int i = 0; i < 4; ++i) {
      e[2] |= static_cast<std::uint64_t>(raw[pos++]) << (8 * i);
    }
    out.encs.push_back(e);
  }
  out.body.assign(raw.begin() + static_cast<std::ptrdiff_t>(pos), raw.end());
  return out;
}

soda::Payload encode_name(soda::Name name) {
  soda::Payload out(8);
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(name.value() >> (8 * i));
  }
  return out;
}

soda::Name decode_name(const soda::Payload& raw) {
  RELYNX_ASSERT(raw.size() >= 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(raw[static_cast<std::size_t>(i)]) << (8 * i);
  }
  return soda::Name(v);
}

}  // namespace

// ===================== setup =====================

SodaBackend::SodaBackend(soda::Network& network, SodaDirectory& directory,
                         net::NodeId node, SodaBackendParams params)
    : network_(&network),
      directory_(&directory),
      node_(node),
      params_(params),
      pid_(network.create_process(node)),
      drained_(std::make_unique<sim::WaitList>(network.engine())),
      ready_(std::make_unique<sim::Gate>(network.engine())) {}

SodaBackend::~SodaBackend() = default;

void SodaBackend::start(Sink sink) {
  RELYNX_ASSERT_MSG(!running_, "backend started twice");
  sink_ = std::move(sink);
  running_ = true;
  network_->engine().spawn("soda-pump", pump());
}

sim::Task<> SodaBackend::pump() {
  soda::Kernel& k = network_->kernel_of(pid_);
  {
    freeze_name_ = co_await k.generate_name(pid_);
    (void)co_await k.advertise(pid_, freeze_name_);
    directory_->processes.push_back({pid_, freeze_name_});
    comm_ready_ = true;
    ready_->open();
  }
  for (;;) {
    if (!running_ && !draining_) break;
    soda::Interrupt intr = co_await k.next_interrupt(pid_);
    if (!running_ && !draining_) break;
    on_interrupt(intr);
  }
}

SodaBackend::SLink* SodaBackend::find(BLink token) {
  auto it = links_.find(token);
  return it == links_.end() ? nullptr : &it->second;
}

SodaBackend::SLink* SodaBackend::find_by_name(soda::Name name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : find(it->second);
}

std::optional<soda::Pid> SodaBackend::moved_owner(soda::Name name) const {
  // Newest first: an end that left us twice is wherever it went last.
  for (auto it = moved_cache_.rbegin(); it != moved_cache_.rend(); ++it) {
    if (it->first == name) return it->second;
  }
  return std::nullopt;
}

void SodaBackend::answer_straggler(const soda::RequestInterrupt& r) {
  // A recently-moved end answers from the cache, an unknown one is
  // (assumed) destroyed.
  if (const std::optional<soda::Pid> owner = moved_owner(r.name)) {
    ++stats_.moved_redirects;
    network_->engine().spawn(
        "soda-redirect", accept_with(r.request, Oop::kMoved, owner->value()));
    return;
  }
  network_->engine().spawn("soda-dead",
                           accept_with(r.request, Oop::kDestroyed, 0));
}

void SodaBackend::remember_move(soda::Name name, soda::Pid new_owner) {
  moved_cache_.emplace_back(name, new_owner);
  if (moved_cache_.size() > params_.moved_cache_capacity) {
    // Forget (and un-advertise) the oldest entry: future stragglers must
    // fall back to discover / freeze (experiment E10).
    auto [old_name, owner] = moved_cache_.front();
    moved_cache_.pop_front();
    network_->engine().spawn(
        "soda-unadvertise",
        [](soda::Kernel* k, soda::Pid me, soda::Name n) -> sim::Task<> {
          (void)co_await k->unadvertise(me, n);
        }(&network_->kernel_of(pid_), pid_, old_name));
  }
}

sim::Task<std::pair<BLink, BLink>> SodaBackend::make_link() {
  while (!comm_ready_) co_await ready_->wait();
  soda::Kernel& k = network_->kernel_of(pid_);
  const soda::Name n1 = co_await k.generate_name(pid_);
  const soda::Name n2 = co_await k.generate_name(pid_);
  (void)co_await k.advertise(pid_, n1);
  (void)co_await k.advertise(pid_, n2);
  const BLink a = blink_ids_.next();
  const BLink b = blink_ids_.next();
  links_.emplace(a, SLink{a, n1, n2, pid_});
  links_.emplace(b, SLink{b, n2, n1, pid_});
  by_name_.emplace(n1, a);
  by_name_.emplace(n2, b);
  co_return std::pair(a, b);
}

// ===================== sending =====================

std::unique_ptr<PendingSend> SodaBackend::begin_send(BLink token,
                                                     WireMessage msg) {
  const std::uint64_t id = next_out_id_++;
  auto ps = std::make_unique<PendingSend>(
      network_->engine(), [this, id](PendingSend&) { request_cancel(id); });
  OutSend out;
  out.id = id;
  out.link = token;
  out.kind = msg.kind;
  out.ps = ps.get();
  out.trace = msg.trace_id;
  std::vector<std::array<std::uint64_t, 3>> encs;
  for (BLink e : msg.enclosures) {
    SLink* rec = find(e);
    RELYNX_ASSERT_MSG(rec != nullptr, "unknown enclosure token");
    encs.push_back({rec->my_name.value(), rec->peer_name.value(),
                    rec->peer_hint.value()});
    out.enclosure_tokens.push_back(e);
  }
  out.data = encode_put(msg.body, encs);
  outs_.emplace(id, std::move(out));
  network_->engine().spawn("soda-send", issue_send(id));
  return ps;
}

sim::Task<> SodaBackend::issue_send(std::uint64_t out_id) {
  // Frozen processes cease execution of everything but searches (§4.2).
  while (freeze_count_ > 0) {
    co_await network_->engine().sleep(sim::msec(1));
  }
  auto it = outs_.find(out_id);
  if (it == outs_.end()) co_return;
  OutSend& out = it->second;
  SLink* link = find(out.link);
  if (link == nullptr || link->destroyed) {
    resolve_out(out_id, SendOutcome{SendResult::kLinkDestroyed, {}});
    co_return;
  }
  const soda::Oob oob{
      static_cast<std::uint32_t>(out.kind == MsgKind::kRequest
                                     ? Oop::kRequestMsg
                                     : Oop::kReplyMsg),
      0};
  out.target = link->peer_hint;
  ++stats_.requests_issued;
  auto req = co_await network_->kernel_of(pid_).request(
      pid_, link->peer_hint, link->peer_name, oob, out.data, 0, out.trace);
  auto it2 = outs_.find(out_id);
  if (it2 == outs_.end()) co_return;
  if (!req.ok()) {
    if (req.error() == soda::Status::kTooManyRequests) {
      // the §4.2.1 outstanding-requests limit: back off and retry
      network_->engine().schedule(sim::msec(10), [this, out_id] {
        network_->engine().spawn("soda-resend", issue_send(out_id));
      });
      co_return;
    }
    // kNoSuchProcess etc.: the hint names a pid that never existed
    network_->engine().spawn("soda-fix", hint_fix_and_resend(out_id));
    co_return;
  }
  it2->second.req = req.value();
  out_by_req_[req.value()] = out_id;
  // Early reply resolve (DESIGN.md §12): the request is on the wire and
  // the kernel retries/redirects on its own — "the requesting user can
  // proceed" (§4.1).  Replies carry no further protocol obligations for
  // the sending thread (the caller is parked waiting for exactly these
  // bytes), so release it now instead of holding it for the full accept
  // round trip.  Replies moving enclosures still wait: the move
  // protocol's bookkeeping is keyed to the completion.
  OutSend& placed = it2->second;
  SLink* link2 = find(placed.link);
  if (placed.kind == MsgKind::kReply && link2 != nullptr &&
      link2->peer_reply_unwanted) {
    // The caller hinted (via our status signal) that it aborted: hold
    // the reply statement for the kernel round trip so the peer's
    // authoritative flag can answer REPLY-UNWANTED.  Consume the hint.
    link2->peer_reply_unwanted = false;
  } else if (placed.kind == MsgKind::kReply &&
             placed.enclosure_tokens.empty() && placed.ps != nullptr &&
             !placed.cancel_requested) {
    placed.ps->settle(SendOutcome{SendResult::kDelivered, {}});
    placed.ps = nullptr;
    placed.early_resolved = true;
  }
}

void SodaBackend::resolve_out(std::uint64_t out_id, SendOutcome outcome) {
  auto it = outs_.find(out_id);
  if (it == outs_.end()) return;
  if (it->second.req.valid()) out_by_req_.erase(it->second.req);
  if (it->second.ps != nullptr) it->second.ps->settle(std::move(outcome));
  outs_.erase(it);
  note_drain_progress();
}

bool SodaBackend::has_unsettled_early() const {
  for (const auto& [id, out] : outs_) {
    if (out.early_resolved) return true;
  }
  return false;
}

void SodaBackend::note_drain_progress() {
  if (draining_ && !has_unsettled_early()) drained_->wake_all();
}

void SodaBackend::request_cancel(std::uint64_t out_id) {
  auto it = outs_.find(out_id);
  if (it == outs_.end()) return;
  it->second.cancel_requested = true;
  network_->engine().spawn("soda-cancel", issue_cancel(out_id));
}

sim::Task<> SodaBackend::issue_cancel(std::uint64_t out_id) {
  auto it = outs_.find(out_id);
  if (it == outs_.end()) co_return;
  OutSend& out = it->second;
  SLink* link = find(out.link);
  if (link == nullptr || !out.req.valid()) co_return;
  // Ask the peer to revoke our parked put.  If it was already accepted
  // the peer answers TooLate and the normal completion stands.
  const soda::Oob oob{static_cast<std::uint32_t>(Oop::kCancel),
                      static_cast<std::uint32_t>(out.req.value())};
  (void)co_await network_->kernel_of(pid_).request(
      pid_, link->peer_hint, link->peer_name, oob, {}, 0);
}

// ===================== interrupts =====================

void SodaBackend::on_interrupt(const soda::Interrupt& intr) {
  if (const auto* r = std::get_if<soda::RequestInterrupt>(&intr)) {
    on_request(*r);
  } else if (const auto* c = std::get_if<soda::CompletionInterrupt>(&intr)) {
    on_completion(*c);
  } else if (const auto* x = std::get_if<soda::CrashInterrupt>(&intr)) {
    on_crash_or_reject(x->request);
  } else if (const auto* j = std::get_if<soda::RejectInterrupt>(&intr)) {
    on_crash_or_reject(j->request);
  }
}

void SodaBackend::on_request(const soda::RequestInterrupt& r) {
  const auto op = static_cast<Oop>(r.oob[0]);
  switch (op) {
    case Oop::kRequestMsg:
    case Oop::kReplyMsg: {
      SLink* link = find_by_name(r.name);
      if (link == nullptr || link->destroyed) {
        answer_straggler(r);
        return;
      }
      if (op == Oop::kReplyMsg) {
        if (link->reply_unwanted) {
          // capability (4): the caller aborted; tell the replier.
          link->reply_unwanted = false;
          network_->engine().spawn(
              "soda-unwanted",
              accept_with(r.request, Oop::kReplyUnwanted, 0));
          return;
        }
        // Replies are always wanted: accept at once.
        network_->engine().spawn(
            "soda-reply-accept",
            accept_msg(link->token, r.request, MsgKind::kReply, r.trace));
        return;
      }
      // LYNX request: PARK until the runtime wants it — screening by
      // (not) accepting, the whole point of lesson two.
      parked_.emplace(r.request, ParkedInfo{link->token, op, r.from,
                                            r.send_bytes, r.trace});
      link->parked_requests.push_back(r.request);
      maybe_accept_parked(*link);
      return;
    }
    case Oop::kSignal: {
      SLink* link = find_by_name(r.name);
      if (link == nullptr || link->destroyed) {
        answer_straggler(r);
        return;
      }
      parked_.emplace(r.request,
                      ParkedInfo{link->token, op, r.from, 0});
      link->parked_signals.push_back(r.request);
      return;
    }
    case Oop::kCancel: {
      const soda::ReqId target(r.oob[1]);
      auto pit = parked_.find(target);
      bool revoked = false;
      if (pit != parked_.end()) {
        if (SLink* link = find(pit->second.link)) {
          std::erase(link->parked_requests, target);
          std::erase(link->parked_signals, target);
        }
        parked_.erase(pit);
        revoked = true;
        network_->engine().spawn(
            "soda-revoke", accept_with(target, Oop::kCancelled, 0));
      }
      network_->engine().spawn(
          "soda-cancel-ack",
          accept_with(r.request, revoked ? Oop::kAcceptOk : Oop::kTooLate,
                      0));
      return;
    }
    case Oop::kFreeze: {
      ++freeze_count_;
      network_->engine().spawn("soda-freeze",
                               answer_freeze(r.request, r.from));
      return;
    }
    case Oop::kHint: {
      // Asynchronous hint from a frozen process (see answer_freeze).
      network_->engine().spawn("soda-hint-taken", take_hint(r));
      return;
    }
    case Oop::kUnfreeze: {
      if (freeze_count_ > 0) --freeze_count_;
      network_->engine().spawn("soda-unfreeze",
                               accept_with(r.request, Oop::kAcceptOk, 0));
      if (freeze_count_ == 0) {
        // Execution resumes: serve anything that parked while frozen.
        for (auto& [token, link] : links_) maybe_accept_parked(link);
      }
      return;
    }
    default:
      return;
  }
}

sim::Task<> SodaBackend::take_hint(soda::RequestInterrupt r) {
  auto taken = co_await network_->kernel_of(pid_).accept(
      pid_, r.request,
      soda::Oob{static_cast<std::uint32_t>(Oop::kAcceptOk), 0}, {},
      kBigBuffer);
  if (!taken.ok()) co_return;
  async_hints_[decode_name(taken.value())] = soda::Pid(r.oob[1]);
}

sim::Task<> SodaBackend::answer_freeze(soda::ReqId req, soda::Pid from) {
  // The searcher shipped the sought link-end name in the put data.
  auto taken = co_await network_->kernel_of(pid_).accept(
      pid_, req, soda::Oob{static_cast<std::uint32_t>(Oop::kNoHint), 0}, {},
      kBigBuffer);
  if (!taken.ok()) co_return;
  // NOTE: SODA transfers data at accept, so we cannot inspect the name
  // before deciding the out-of-band answer in a single accept.  Real
  // LYNX would use two phases; we emulate by answering in a follow-up
  // request if we do hold a hint.
  const soda::Name sought = decode_name(taken.value());
  const std::optional<soda::Pid> hint =
      find_by_name(sought) != nullptr ? std::optional(pid_)
                                      : moved_owner(sought);
  if (hint.has_value()) {
    // Tell the searcher via its freeze name (it is in the directory).
    for (const auto& entry : directory_->processes) {
      if (entry.pid == from) {
        (void)co_await network_->kernel_of(pid_).request(
            pid_, entry.pid, entry.freeze_name,
            soda::Oob{static_cast<std::uint32_t>(Oop::kHint),
                      static_cast<std::uint32_t>(hint->value())},
            encode_name(sought), 0);
        break;
      }
    }
  }
}

void SodaBackend::on_completion(const soda::CompletionInterrupt& c) {
  // freeze searches first
  if (auto fit = freeze_collects_.find(c.request);
      fit != freeze_collects_.end()) {
    FreezeCollector* col = fit->second;
    freeze_collects_.erase(fit);
    const auto op = static_cast<Oop>(c.oob[0]);
    if (op == Oop::kHint && !col->hint.has_value()) {
      col->hint = soda::Pid(c.oob[1]);
    }
    if (--col->expected == 0) col->done->fulfill(0);
    return;
  }
  if (auto sit = signal_by_req_.find(c.request); sit != signal_by_req_.end()) {
    const BLink token = sit->second;
    signal_by_req_.erase(sit);
    SLink* link = find(token);
    if (link == nullptr) return;
    link->signal_out = soda::ReqId::invalid();
    const auto op = static_cast<Oop>(c.oob[0]);
    if (op == Oop::kDestroyed) {
      mark_destroyed(*link);
    } else if (op == Oop::kMoved) {
      ++stats_.hint_misses;
      link->peer_hint = soda::Pid(c.oob[1]);
      network_->engine().spawn("soda-signal", post_signal(token));
    } else if (op == Oop::kReplyUnwanted) {
      // The caller aborted: our next reply must wait for the peer's
      // authoritative verdict instead of resolving early.  Repost the
      // signal — it still watches for destruction and moves.
      link->peer_reply_unwanted = true;
      network_->engine().spawn("soda-signal", post_signal(token));
    }
    return;
  }
  auto oit = out_by_req_.find(c.request);
  if (oit == out_by_req_.end()) return;  // cancel-puts, unfreezes, ...
  const std::uint64_t out_id = oit->second;
  out_by_req_.erase(oit);
  auto it = outs_.find(out_id);
  if (it == outs_.end()) return;
  OutSend& out = it->second;
  const auto op = static_cast<Oop>(c.oob[0]);
  switch (op) {
    case Oop::kAcceptOk: {
      const BLink token = out.link;
      const soda::Pid new_owner = out.target;
      std::vector<BLink> moved = out.enclosure_tokens;
      resolve_out(out_id, SendOutcome{SendResult::kDelivered, {}});
      if (!moved.empty()) {
        network_->engine().spawn(
            "soda-move-done",
            finish_moves(token, std::move(moved), new_owner));
      }
      return;
    }
    case Oop::kReplyUnwanted:
      resolve_out(out_id, SendOutcome{SendResult::kReplyUnwanted, {}});
      return;
    case Oop::kDestroyed: {
      SLink* link = find(out.link);
      resolve_out(out_id, SendOutcome{SendResult::kLinkDestroyed, {}});
      if (link != nullptr) mark_destroyed(*link);
      return;
    }
    case Oop::kMoved: {
      ++stats_.hint_misses;
      if (SLink* link = find(out.link)) {
        link->peer_hint = soda::Pid(c.oob[1]);
      }
      out.req = soda::ReqId::invalid();
      network_->engine().spawn("soda-resend", issue_send(out_id));
      return;
    }
    case Oop::kCancelled:
      resolve_out(out_id, SendOutcome{SendResult::kCancelled, {}});
      return;
    default:
      return;
  }
}

void SodaBackend::on_crash_or_reject(soda::ReqId req) {
  if (auto fit = freeze_collects_.find(req); fit != freeze_collects_.end()) {
    FreezeCollector* col = fit->second;
    freeze_collects_.erase(fit);
    if (--col->expected == 0) col->done->fulfill(0);
    return;
  }
  if (auto sit = signal_by_req_.find(req); sit != signal_by_req_.end()) {
    const BLink token = sit->second;
    signal_by_req_.erase(sit);
    if (SLink* link = find(token)) {
      link->signal_out = soda::ReqId::invalid();
      network_->engine().spawn("soda-signal-fix", fix_signal(token));
    }
    return;
  }
  auto oit = out_by_req_.find(req);
  if (oit == out_by_req_.end()) return;
  const std::uint64_t out_id = oit->second;
  out_by_req_.erase(oit);
  if (auto it = outs_.find(out_id); it != outs_.end()) {
    it->second.req = soda::ReqId::invalid();
    network_->engine().spawn("soda-fix", hint_fix_and_resend(out_id));
  }
}

// ===================== hint repair =====================

sim::Task<std::optional<soda::Pid>> SodaBackend::locate_peer(
    soda::Name peer_name) {
  soda::Kernel& k = network_->kernel_of(pid_);
  ++stats_.discover_searches;
  for (int i = 0; i < params_.discover_attempts; ++i) {
    auto found = co_await k.discover(pid_, peer_name);
    if (found.has_value()) co_return found;
  }
  ++stats_.discover_failures;
  if (!params_.enable_freeze_fallback) co_return std::nullopt;
  ++stats_.freeze_searches;
  auto frozen = co_await freeze_search(peer_name);
  co_return frozen;
}

sim::Task<> SodaBackend::hint_fix_and_resend(std::uint64_t out_id) {
  auto it = outs_.find(out_id);
  if (it == outs_.end()) co_return;
  ++stats_.hint_misses;
  const BLink token = it->second.link;
  SLink* link = find(token);
  if (link == nullptr || link->destroyed) {
    resolve_out(out_id, SendOutcome{SendResult::kLinkDestroyed, {}});
    co_return;
  }
  auto found = co_await locate_peer(link->peer_name);
  link = find(token);
  if (link == nullptr || outs_.find(out_id) == outs_.end()) co_return;
  if (!found.has_value()) {
    // "A process that is unable to find the far end of a link must
    // assume it has been destroyed."
    resolve_out(out_id, SendOutcome{SendResult::kLinkDestroyed, {}});
    mark_destroyed(*link);
    co_return;
  }
  link->peer_hint = *found;
  co_await issue_send(out_id);
}

sim::Task<> SodaBackend::fix_signal(BLink token) {
  SLink* link = find(token);
  if (link == nullptr || link->destroyed) co_return;
  auto found = co_await locate_peer(link->peer_name);
  link = find(token);
  if (link == nullptr || link->destroyed) co_return;
  if (!found.has_value()) {
    mark_destroyed(*link);
    co_return;
  }
  link->peer_hint = *found;
  co_await post_signal(token);
}

sim::Task<std::optional<soda::Pid>> SodaBackend::freeze_search(
    soda::Name peer_name) {
  soda::Kernel& k = network_->kernel_of(pid_);
  FreezeCollector col;
  col.done = std::make_unique<sim::OneShot<int>>(network_->engine());
  std::vector<soda::Pid> contacted;
  for (const auto& entry : directory_->processes) {
    if (entry.pid == pid_ || !network_->alive(entry.pid)) continue;
    auto req = co_await k.request(
        pid_, entry.pid, entry.freeze_name,
        soda::Oob{static_cast<std::uint32_t>(Oop::kFreeze), 0},
        encode_name(peer_name), 0);
    if (req.ok()) {
      ++col.expected;
      freeze_collects_[req.value()] = &col;
      contacted.push_back(entry.pid);
    }
  }
  // Hints can also arrive as follow-up kHint requests to our own freeze
  // name (answer_freeze); give the search a settling window.
  if (col.expected > 0) {
    (void)co_await col.done->take();
  }
  co_await network_->engine().sleep(sim::msec(50));
  // unfreeze everyone we froze
  for (soda::Pid p : contacted) {
    for (const auto& entry : directory_->processes) {
      if (entry.pid != p) continue;
      (void)co_await k.request(
          pid_, entry.pid, entry.freeze_name,
          soda::Oob{static_cast<std::uint32_t>(Oop::kUnfreeze), 0}, {}, 0);
    }
  }
  if (col.hint.has_value()) co_return col.hint;
  // Check asynchronous kHint answers that landed on our freeze channel.
  // Entries are NOT consumed: the send-fix and the signal-fix for the
  // same link may search concurrently (the paper's freeze counter
  // exists exactly to allow "multiple concurrent searches"), and both
  // deserve the answer.
  if (auto it = async_hints_.find(peer_name); it != async_hints_.end()) {
    co_return it->second;
  }
  co_return std::nullopt;
}

// ===================== accepting / delivery =====================

sim::Task<> SodaBackend::accept_with(soda::ReqId req, Oop code,
                                     std::uint64_t word1) {
  (void)co_await network_->kernel_of(pid_).accept(
      pid_, req,
      soda::Oob{static_cast<std::uint32_t>(code),
                static_cast<std::uint32_t>(word1)},
      {}, 0);
}

void SodaBackend::maybe_accept_parked(SLink& link) {
  if (!link.want_requests || link.destroyed || freeze_count_ > 0) return;
  while (!link.parked_requests.empty()) {
    const soda::ReqId req = link.parked_requests.front();
    link.parked_requests.pop_front();
    auto pit = parked_.find(req);
    if (pit == parked_.end()) continue;  // cancelled meanwhile
    const std::uint64_t trace = pit->second.trace;
    parked_.erase(pit);
    network_->engine().spawn(
        "soda-accept", accept_msg(link.token, req, MsgKind::kRequest, trace));
  }
}

sim::Task<> SodaBackend::accept_msg(BLink token, soda::ReqId req, MsgKind kind,
                                    std::uint64_t trace) {
  auto taken = co_await network_->kernel_of(pid_).accept(
      pid_, req, soda::Oob{static_cast<std::uint32_t>(Oop::kAcceptOk), 0},
      {}, kBigBuffer);
  SLink* link = find(token);
  if (!taken.ok() || link == nullptr) co_return;
  co_await deliver(*link, kind, taken.value(), trace);
}

sim::Task<> SodaBackend::deliver(SLink& link, MsgKind kind,
                                 const soda::Payload& raw,
                                 std::uint64_t trace) {
  DecodedPut decoded = decode_put(raw);
  std::vector<BLink> enclosures;
  soda::Kernel& k = network_->kernel_of(pid_);
  for (const auto& e : decoded.encs) {
    const soda::Name my_name(e[0]);
    const soda::Name peer_name(e[1]);
    const soda::Pid hint(static_cast<std::uint32_t>(e[2]));
    (void)co_await k.advertise(pid_, my_name);
    const BLink nb = blink_ids_.next();
    links_.emplace(nb, SLink{nb, my_name, peer_name, hint});
    by_name_.emplace(my_name, nb);
    enclosures.push_back(nb);
  }
  BackendEvent ev;
  ev.kind = kind == MsgKind::kRequest ? BackendEvent::Kind::kRequestArrived
                                      : BackendEvent::Kind::kReplyArrived;
  ev.link = link.token;
  ev.body = std::move(decoded.body);
  ev.enclosures = std::move(enclosures);
  ev.trace = trace;
  if (sink_) sink_(ev);
}

sim::Task<> SodaBackend::finish_moves(BLink carrier,
                                      std::vector<BLink> moved,
                                      soda::Pid new_owner) {
  (void)carrier;
  for (BLink token : moved) {
    SLink* link = find(token);
    if (link == nullptr) continue;
    // "A process that moves a link end must accept any previously-posted
    // SODA request from the other end" — with MOVED info.
    std::vector<soda::ReqId> to_bounce;
    for (soda::ReqId r : link->parked_requests) to_bounce.push_back(r);
    for (soda::ReqId r : link->parked_signals) to_bounce.push_back(r);
    for (soda::ReqId r : to_bounce) {
      if (parked_.erase(r) > 0) {
        co_await accept_with(r, Oop::kMoved, new_owner.value());
      }
    }
    remember_move(link->my_name, new_owner);
    by_name_.erase(link->my_name);
    links_.erase(token);
  }
}

// ===================== interest / signals =====================

void SodaBackend::set_interest(BLink token, bool want_requests,
                               bool want_replies) {
  SLink* link = find(token);
  if (link == nullptr || link->destroyed) return;
  link->want_requests = want_requests;
  link->want_replies = want_replies;
  maybe_accept_parked(*link);
  if ((want_requests || want_replies) && !link->signal_out.valid() &&
      comm_ready_) {
    network_->engine().spawn("soda-signal", post_signal(token));
  }
}

sim::Task<> SodaBackend::post_signal(BLink token) {
  SLink* link = find(token);
  if (link == nullptr || link->destroyed || link->signal_out.valid()) {
    co_return;
  }
  link->signal_out = soda::ReqId(0);  // placeholder: posting in progress
  ++stats_.signals_posted;
  auto req = co_await network_->kernel_of(pid_).request(
      pid_, link->peer_hint, link->peer_name,
      soda::Oob{static_cast<std::uint32_t>(Oop::kSignal), 0}, {}, 0);
  link = find(token);
  if (link == nullptr) co_return;
  if (!req.ok()) {
    link->signal_out = soda::ReqId::invalid();
    co_return;
  }
  link->signal_out = req.value();
  signal_by_req_[req.value()] = token;
}

void SodaBackend::retract_reply_interest(BLink token) {
  SLink* link = find(token);
  if (link == nullptr) return;
  link->reply_unwanted = true;
  // Tell the replier right away by answering its parked status signal:
  // without the hint, the early reply resolve (DESIGN.md §12) would
  // release the reply statement before our authoritative flag could
  // bounce the reply.  Losing the hint (no signal parked) only costs
  // the exception's punctuality, never the flag's verdict.
  if (!link->parked_signals.empty()) {
    const soda::ReqId sig = link->parked_signals.front();
    link->parked_signals.pop_front();
    if (parked_.erase(sig) > 0) {
      network_->engine().spawn("soda-unwanted-hint",
                               accept_with(sig, Oop::kReplyUnwanted, 0));
    }
  }
}

// ===================== destruction =====================

void SodaBackend::mark_destroyed(SLink& link) {
  if (link.destroyed) return;
  link.destroyed = true;
  BackendEvent ev;
  ev.kind = BackendEvent::Kind::kLinkDestroyed;
  ev.link = link.token;
  if (sink_) sink_(ev);
  // Outstanding sends are NOT failed here: every in-flight put resolves
  // through a kernel path (acceptance completion, kDestroyed accept from
  // the destroyer, or a crash interrupt), and a completion may already
  // be in flight — the peer can legitimately accept our last message and
  // then destroy the link before the completion interrupt lands.
}

sim::Task<void> SodaBackend::destroy(BLink token) {
  co_await perform_destroy(token);
}

sim::Task<> SodaBackend::perform_destroy(BLink token) {
  SLink* link = find(token);
  if (link == nullptr) co_return;
  link->destroyed = true;
  // "we require a process that destroys a link to accept any
  // previously-posted status signal on its end, mentioning the
  // destruction ... also ... any outstanding put request, but with a
  // zero-length buffer, again mentioning the destruction."
  std::vector<soda::ReqId> to_bounce;
  for (soda::ReqId r : link->parked_requests) to_bounce.push_back(r);
  for (soda::ReqId r : link->parked_signals) to_bounce.push_back(r);
  link->parked_requests.clear();
  link->parked_signals.clear();
  for (soda::ReqId r : to_bounce) {
    if (parked_.erase(r) > 0) {
      co_await accept_with(r, Oop::kDestroyed, 0);
    }
  }
  // "After clearing the signals and puts, the process can unadvertise
  // the name of the end and forget that it ever existed."
  (void)co_await network_->kernel_of(pid_).unadvertise(pid_,
                                                       link->my_name);
  by_name_.erase(link->my_name);
  links_.erase(token);
}

void SodaBackend::shutdown() {
  if (!running_) return;
  running_ = false;
  draining_ = true;
  network_->engine().spawn("soda-shutdown", perform_shutdown());
}

sim::Task<> SodaBackend::perform_shutdown() {
  // Drain early-resolved replies first: their threads have moved on, but
  // the bytes are still the kernel's responsibility, and terminate()
  // drops this process's outstanding requests without completing them.
  while (has_unsettled_early()) co_await drained_->wait();
  draining_ = false;
  std::vector<BLink> tokens;
  for (auto& [token, link] : links_) tokens.push_back(token);
  for (BLink t : tokens) co_await perform_destroy(t);
  network_->terminate(pid_);
}

// ===================== bootstrap =====================

sim::Task<std::pair<LinkHandle, LinkHandle>> SodaBackend::connect(
    Process& a, Process& b) {
  auto* ba = dynamic_cast<SodaBackend*>(&a.backend());
  auto* bb = dynamic_cast<SodaBackend*>(&b.backend());
  RELYNX_ASSERT_MSG(ba != nullptr && bb != nullptr,
                    "connect requires SODA backends");
  RELYNX_ASSERT_MSG(ba->network_ == bb->network_, "same SODA net required");
  while (!ba->comm_ready_) co_await ba->ready_->wait();
  while (!bb->comm_ready_) co_await bb->ready_->wait();
  soda::Kernel& ka = ba->network_->kernel_of(ba->pid_);
  soda::Kernel& kb = bb->network_->kernel_of(bb->pid_);
  const soda::Name na = co_await ka.generate_name(ba->pid_);
  const soda::Name nb = co_await ka.generate_name(ba->pid_);
  (void)co_await ka.advertise(ba->pid_, na);
  (void)co_await kb.advertise(bb->pid_, nb);
  const BLink ta = ba->blink_ids_.next();
  ba->links_.emplace(ta, SLink{ta, na, nb, bb->pid_});
  ba->by_name_.emplace(na, ta);
  const BLink tb = bb->blink_ids_.next();
  bb->links_.emplace(tb, SLink{tb, nb, na, ba->pid_});
  bb->by_name_.emplace(nb, tb);
  co_return std::pair(a.adopt_link(ta), b.adopt_link(tb));
}

std::unique_ptr<SodaBackend> make_soda_backend(soda::Network& network,
                                               SodaDirectory& directory,
                                               net::NodeId node,
                                               SodaBackendParams params) {
  return std::make_unique<SodaBackend>(network, directory, node, params);
}

}  // namespace lynx

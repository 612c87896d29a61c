#include "replica/replica.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <variant>

#include "common/assert.hpp"
#include "lynx/connect.hpp"
#include "trace/trace.hpp"

namespace replica {

const char* to_string(OpType t) {
  switch (t) {
    case OpType::kPut: return "put";
    case OpType::kGet: return "get";
    case OpType::kAdd: return "add";
  }
  return "?";
}

// All mutable group state lives here, behind one stable pointer, so the
// coroutine thread bodies (free functions per CP.51) can share it with
// the fault schedule and the view-change driver.
struct Group::Core {
  sim::Engine* engine = nullptr;
  Options opt;
  load::World* world = nullptr;  // the Group's; owns every process

  struct Node {
    Role role = Role::kBackup;
    bool alive = true;
    Store store;
    PrimaryState ps;  // meaningful only while role == kPrimary
    std::vector<lynx::LinkHandle> initial_links;  // enabled by the serve loop
    std::unique_ptr<sim::WaitList> wake;  // parked serve loop <- rewire driver
  };
  struct Session {
    lynx::LinkHandle link;
    std::uint64_t generation = 0;
    std::unique_ptr<sim::WaitList> rewire;
  };

  std::vector<lynx::Process*> replicas;
  std::vector<lynx::Process*> clients;
  // Pre-restart incarnations, kept so their thread-failure logs survive.
  std::vector<lynx::Process*> graveyard;
  std::vector<Node> nodes;
  std::vector<Session> sessions;

  Metrics metrics;
  std::uint64_t view = 0;
  std::size_t primary = 0;
  std::size_t crashed_primary = SIZE_MAX;  // victim of crash_primary_at
};

namespace {

using Core = Group::Core;
using net::NodeId;

std::int64_t arg_i64(const lynx::Message& m, std::size_t i) {
  return std::get<std::int64_t>(m.args.at(i));
}

std::int64_t kv_read(const Store& st, std::int64_t key, bool stale) {
  const auto cur = st.kv.find(key);
  const std::int64_t live = cur == st.kv.end() ? 0 : cur->second;
  if (!stale) return live;
  // The planted bug: answer from the value each key held before its
  // most recent committed write.
  const auto p = st.prev.find(key);
  return p == st.prev.end() ? live : p->second;
}

std::int64_t kv_write(Store& st, OpType t, std::int64_t key, std::int64_t arg) {
  const auto cur = st.kv.find(key);
  const std::int64_t old = cur == st.kv.end() ? 0 : cur->second;
  const std::int64_t next = t == OpType::kPut ? arg : old + arg;
  st.prev[key] = old;
  st.kv[key] = next;
  return next;
}

// ---- service threads (coroutine bodies are free functions, CP.51) ----

// Full-state catch-up of freshly wired backups; run by the primary's
// serve loop around each receive so a new primary syncs its survivors
// before it commits anything in the new view.
sim::Task<> drain_pending(lynx::ThreadCtx& ctx, Core* g, std::size_t idx) {
  Core::Node& me = g->nodes[idx];
  while (me.role == Role::kPrimary && !me.ps.pending.empty()) {
    const lynx::LinkHandle bl = me.ps.pending.front();
    me.ps.pending.pop_front();
    lynx::Message m;
    m.op = "sync";
    m.args.push_back(static_cast<std::int64_t>(me.store.view));
    m.args.push_back(static_cast<std::int64_t>(me.store.applied));
    for (const auto& [k, v] : me.store.kv) {
      m.args.push_back(k);
      m.args.push_back(v);
    }
    try {
      (void)co_await ctx.call(bl, std::move(m));
      me.ps.backups.push_back({bl, true});
    } catch (const lynx::LynxError&) {
      // The fresh backup died before syncing; it can rejoin later.
    }
    if (ctx.process().terminated()) co_return;
  }
}

sim::Task<> serve_one(lynx::ThreadCtx& ctx, Core* g, std::size_t idx,
                      lynx::Incoming in) {
  Core::Node& me = g->nodes[idx];
  const lynx::Message& m = in.msg;
  // The runtime stamps every reply with the request's op, so success is
  // an args convention: [0, payload] for ok, [1] for nak.
  lynx::Message rep;
  rep.args.push_back(std::int64_t{0});
  if (m.op == "kv" && me.role == Role::kPrimary) {
    const auto t = static_cast<OpType>(arg_i64(m, 0));
    const std::int64_t key = arg_i64(m, 1);
    const std::int64_t arg = arg_i64(m, 2);
    std::int64_t result = 0;
    if (t == OpType::kGet) {
      // Reads are served at the primary; there is one primary at a
      // time by construction, so no backup round trip is needed.
      result = kv_read(me.store, key, g->opt.debug_stale_reads);
    } else {
      const std::uint64_t seq = me.ps.next_seq++;
      for (BackupSlot& b : me.ps.backups) {
        if (!b.alive) continue;
        lynx::Message fwd;
        fwd.op = "rep";
        fwd.args = {static_cast<std::int64_t>(me.store.view),
                    static_cast<std::int64_t>(seq),
                    static_cast<std::int64_t>(t), key, arg};
        try {
          (void)co_await ctx.call(b.link, std::move(fwd));
        } catch (const lynx::LynxError&) {
          b.alive = false;  // a dead backup leaves the fan-out
        }
        if (ctx.process().terminated()) co_return;
      }
      result = kv_write(me.store, t, key, arg);
      me.store.applied = seq;
      g->metrics.first_commit_in_view.try_emplace(me.store.view,
                                                  ctx.engine().now());
    }
    rep.args.push_back(result);
  } else if (m.op == "rep") {
    const auto view = static_cast<std::uint64_t>(arg_i64(m, 0));
    const auto seq = static_cast<std::uint64_t>(arg_i64(m, 1));
    if (view >= me.store.view) {
      me.store.view = view;
      if (seq == me.store.applied + 1) {
        (void)kv_write(me.store, static_cast<OpType>(arg_i64(m, 2)),
                       arg_i64(m, 3), arg_i64(m, 4));
        me.store.applied = seq;
      }
      // seq <= applied is a duplicate of something already applied.  A
      // gap (seq > applied+1) means we missed ops while out of the
      // fan-out; the "sync" that readmits us repairs it wholesale.
    }
    rep.args.push_back(static_cast<std::int64_t>(me.store.applied));
  } else if (m.op == "sync") {
    const auto view = static_cast<std::uint64_t>(arg_i64(m, 0));
    if (view >= me.store.view) {
      me.store = Store{};
      me.store.view = view;
      me.store.applied = static_cast<std::uint64_t>(arg_i64(m, 1));
      for (std::size_t i = 2; i + 1 < m.args.size(); i += 2) {
        me.store.kv[std::get<std::int64_t>(m.args[i])] =
            std::get<std::int64_t>(m.args[i + 1]);
      }
    }
    rep.args.push_back(static_cast<std::int64_t>(me.store.applied));
  } else {
    rep.args[0] = 1;  // nak: e.g. a client op that reached a mere backup
  }
  try {
    co_await ctx.reply(in, std::move(rep));
  } catch (const lynx::LynxError&) {
    // The caller died while we served; nobody is left to tell.
  }
}

// One serve loop per replica process for its whole life; the node's
// role flips between backup and primary via shared state, so whichever
// parked receive() picks a request up handles it correctly.
sim::Task<> node_serve(lynx::ThreadCtx& ctx, Core* g, std::size_t idx) {
  Core::Node& me = g->nodes[idx];
  for (const lynx::LinkHandle l : me.initial_links) ctx.enable_requests(l);
  me.initial_links.clear();
  for (;;) {
    co_await drain_pending(ctx, g, idx);
    lynx::Incoming in;
    bool queues_dead = false;
    try {
      in = co_await ctx.receive();
    } catch (const lynx::LynxError&) {
      // Every open request queue died: our peer crashed, or we were
      // terminated.
      queues_dead = true;
    }
    if (queues_dead) {
      // Park until the harness wires a replacement link (another
      // receive() would rethrow immediately — spinning, not waiting).
      if (ctx.process().terminated()) co_return;
      co_await me.wake->wait();
      if (ctx.process().terminated()) co_return;
      continue;
    }
    // A view change or rejoin may have queued catch-up work while the
    // request above was in flight; a new primary must sync before its
    // first commit of the view.
    co_await drain_pending(ctx, g, idx);
    co_await serve_one(ctx, g, idx, std::move(in));
    if (ctx.process().terminated()) co_return;
  }
}

sim::Task<> client_run(lynx::ThreadCtx& ctx, Core* g, std::size_t cidx) {
  Core::Session& sess = g->sessions[cidx];
  const auto node = static_cast<std::uint32_t>(g->opt.replicas + cidx);
  co_await ctx.delay(g->opt.start_delay);
  for (int i = 0; i < g->opt.ops_per_client; ++i) {
    if (i > 0 && g->opt.think > 0) co_await ctx.delay(g->opt.think);
    const OpType t = i % 3 == 0   ? OpType::kPut
                     : i % 3 == 1 ? OpType::kGet
                                  : OpType::kAdd;
    const std::int64_t key = (static_cast<std::int64_t>(cidx) + i) %
                             std::max<std::int64_t>(1, g->opt.keys);
    // Put values are unique and nonzero so the linearizability oracle
    // can tell every write apart; adds are small distinct deltas.
    const std::int64_t arg =
        t == OpType::kPut
            ? ((static_cast<std::int64_t>(cidx) + 1) << 16) + i + 1
            : (t == OpType::kAdd ? static_cast<std::int64_t>(cidx) + i + 1
                                 : 0);
    auto* rec = trace::get(ctx.engine());
    const trace::TraceId op_trace = rec != nullptr ? rec->new_trace() : 0;
    ctx.set_trace_context(op_trace);
    if (rec != nullptr) {
      rec->instant(node, "app", "kv.invoke", op_trace,
                   (static_cast<std::uint64_t>(t) << 32) |
                       static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                           static_cast<std::int32_t>(key))),
                   static_cast<std::uint64_t>(arg));
    }
    const sim::Time began = ctx.engine().now();
    // Capture the session generation *before* calling: on a slow
    // transport (SODA) the harness may rewire us while the call is
    // still dying, and waiting for a bump that already happened would
    // park this client forever.
    const std::uint64_t gen = sess.generation;
    bool ok = false;
    std::int64_t result = 0;
    try {
      lynx::Message req;
      req.op = "kv";
      req.args = {static_cast<std::int64_t>(t), key, arg};
      lynx::Message rep = co_await ctx.call(sess.link, std::move(req));
      ok = rep.args.size() >= 2 && std::get<std::int64_t>(rep.args[0]) == 0;
      if (ok) result = std::get<std::int64_t>(rep.args[1]);
    } catch (const lynx::LynxError&) {
      ok = false;
    }
    rec = trace::get(ctx.engine());
    if (ok) {
      if (rec != nullptr) {
        rec->instant(node, "app", "kv.ok", op_trace,
                     static_cast<std::uint64_t>(result), 0);
      }
      ++g->metrics.ok;
      const double us = sim::to_usec(ctx.engine().now() - began);
      (t == OpType::kGet ? g->metrics.read_latency : g->metrics.write_latency)
          .add(us);
    } else {
      // The outcome is unknown: the op may or may not have committed
      // before the link died.  kv.err marks it optional for the oracle.
      if (rec != nullptr) rec->instant(node, "app", "kv.err", op_trace, 0, 0);
      ++g->metrics.err;
      if (ctx.process().terminated()) co_return;
      // Wait out the fail-over, then move on to the NEXT op on the
      // replacement link (no retry: a duplicate commit would be a
      // different history than the one we recorded).
      while (sess.generation == gen) co_await sess.rewire->wait();
    }
  }
}

// Short-lived helper thread: opening a request queue is a ThreadCtx
// operation, and the resident serve loop may be parked inside the
// backend (unreachable) when a replacement link appears.
sim::Task<> enable_links(lynx::ThreadCtx& ctx,
                         std::vector<lynx::LinkHandle> links) {
  for (const lynx::LinkHandle l : links) {
    try {
      ctx.enable_requests(l);
    } catch (const lynx::LynxError&) {
      // Destroyed before we ran; the peer will find out the usual way.
    }
  }
  co_return;
}

sim::Task<> wire_initial(Core* g) {
  for (std::size_t b = 1; b < g->nodes.size(); ++b) {
    auto [pe, be] = co_await lynx::connect_any(*g->replicas[0], *g->replicas[b]);
    g->nodes[0].ps.backups.push_back({pe, true});
    g->nodes[b].initial_links.push_back(be);
  }
  for (std::size_t c = 0; c < g->sessions.size(); ++c) {
    auto [pe, ce] = co_await lynx::connect_any(*g->replicas[0], *g->clients[c]);
    g->nodes[0].initial_links.push_back(pe);
    g->sessions[c].link = ce;
  }
}

// ---- fault schedule ---------------------------------------------------

void crash_node(Core* g, std::size_t idx) {
  // Medium first: a crashed node cannot transmit, so the frames its
  // teardown would have sent die on the wire (Charlotte peers learn of
  // the crash from the distributed kernel's notice instead; SODA peers
  // only ever find out from their own timeouts).
  g->world->crash(NodeId(static_cast<std::uint32_t>(idx)));
  g->nodes[idx].alive = false;
  g->replicas[idx]->terminate();
}

// Harness-driven view change: anoint the live replica with the most
// applied ops (it is a superset of every other survivor — the old
// primary applied only after all live backups acknowledged, so
// survivors differ by at most the op in flight), wire it to the other
// survivors and to every client, and wake the world up.
sim::Task<> view_change(Core* g) {
  std::size_t np = SIZE_MAX;
  for (std::size_t i = 0; i < g->nodes.size(); ++i) {
    if (!g->nodes[i].alive) continue;
    if (np == SIZE_MAX ||
        g->nodes[i].store.applied > g->nodes[np].store.applied) {
      np = i;
    }
  }
  if (np == SIZE_MAX) co_return;  // total wipeout; clients stay parked
  g->primary = np;
  Core::Node& p = g->nodes[np];
  p.role = Role::kPrimary;
  p.store.view = ++g->view;
  p.ps = PrimaryState{};
  p.ps.next_seq = p.store.applied + 1;

  for (std::size_t s = 0; s < g->nodes.size(); ++s) {
    if (s == np || !g->nodes[s].alive) continue;
    auto [pe, be] =
        co_await lynx::connect_any(*g->replicas[np], *g->replicas[s]);
    const std::vector<lynx::LinkHandle> links{be};
    g->replicas[s]->spawn_thread("enable", [links](lynx::ThreadCtx& ctx) {
      return enable_links(ctx, links);
    });
    p.ps.pending.push_back(pe);  // synced before the first new commit
  }
  std::vector<lynx::LinkHandle> primary_ends;
  for (std::size_t c = 0; c < g->sessions.size(); ++c) {
    auto [pe, ce] = co_await lynx::connect_any(*g->replicas[np], *g->clients[c]);
    primary_ends.push_back(pe);
    g->sessions[c].link = ce;
  }
  g->replicas[np]->spawn_thread("enable", [primary_ends](lynx::ThreadCtx& ctx) {
    return enable_links(ctx, primary_ends);
  });
  // Let the enabler threads open every queue before anyone sends: a
  // request arriving at a closed queue would be screened off.
  co_await g->engine->sleep(sim::msec(1));
  for (Core::Node& n : g->nodes) {
    if (n.alive) n.wake->wake_all();
  }
  for (Core::Session& sess : g->sessions) {
    ++sess.generation;
    sess.rewire->wake_all();
  }
}

// A crashed replica comes back empty on the same node and rejoins the
// current primary's fan-out as a backup (catch-up via "sync").
sim::Task<> rejoin(Core* g, std::size_t idx) {
  g->world->restart(NodeId(static_cast<std::uint32_t>(idx)));
  g->graveyard.push_back(g->replicas[idx]);
  g->replicas[idx] = &g->world->make_process("rep" + std::to_string(idx), idx);
  Core::Node& me = g->nodes[idx];
  me.role = Role::kBackup;
  me.store = Store{};
  me.ps = PrimaryState{};
  g->replicas[idx]->start();
  lynx::Process* primary = g->replicas[g->primary];
  if (primary->terminated()) co_return;  // nobody to rejoin
  auto [pe, be] = co_await lynx::connect_any(*primary, *g->replicas[idx]);
  me.initial_links.push_back(be);
  g->replicas[idx]->spawn_thread("serve", [g, idx](lynx::ThreadCtx& ctx) {
    return node_serve(ctx, g, idx);
  });
  me.alive = true;
  g->nodes[g->primary].ps.pending.push_back(pe);
  g->nodes[g->primary].wake->wake_all();
}

load::WorldParams world_params(const Options& opt) {
  load::WorldParams p;
  p.nodes = opt.replicas + opt.clients;
  p.fabric.nodes = static_cast<std::uint32_t>(p.nodes);
  p.form_delay = opt.form_delay;
  p.form_max_bytes = opt.form_max_bytes;
  p.bus_seed = opt.seed;
  // Crashes come from the fault schedule below, through the medium.
  p.faults = fault::Plan{};
  p.fault_seed = opt.seed;
  // Transport acks on: SODA has no absolute crash notice, so a call
  // into a crashed node must die by retransmission exhaustion
  // (CrashInterrupt) rather than hang forever (§2, §4.1).
  p.soda.ack_timeout = sim::msec(10);
  return p;
}

}  // namespace

// ---- Group -----------------------------------------------------------

Group::Group(sim::Engine& engine, load::Substrate substrate, Options opt)
    : opt_(opt),
      core_(std::make_unique<Core>()),
      world_(engine, substrate, world_params(opt)) {
  RELYNX_ASSERT(opt_.replicas >= 1 && opt_.clients >= 1);
  Core* g = core_.get();
  g->engine = &engine;
  g->opt = opt_;
  g->world = &world_;
  g->nodes.resize(opt_.replicas);
  for (Core::Node& n : g->nodes) {
    n.wake = std::make_unique<sim::WaitList>(engine);
  }
  g->nodes[0].role = Role::kPrimary;
  g->sessions.resize(opt_.clients);
  for (Core::Session& s : g->sessions) {
    s.rewire = std::make_unique<sim::WaitList>(engine);
  }
  for (std::size_t i = 0; i < opt_.replicas; ++i) {
    g->replicas.push_back(&world_.make_process("rep" + std::to_string(i), i));
  }
  for (std::size_t i = 0; i < opt_.clients; ++i) {
    g->clients.push_back(
        &world_.make_process("cli" + std::to_string(i), opt_.replicas + i));
  }
  for (lynx::Process* p : g->replicas) p->start();
  for (lynx::Process* p : g->clients) p->start();

  engine.spawn("replica-wire", wire_initial(g));
  engine.run();  // only bootstrap traffic exists yet
  for (const Core::Session& s : g->sessions) {
    RELYNX_ASSERT_MSG(s.link.valid(), "replica wiring incomplete");
  }

  for (std::size_t i = 0; i < opt_.replicas; ++i) {
    g->replicas[i]->spawn_thread("serve", [g, i](lynx::ThreadCtx& ctx) {
      return node_serve(ctx, g, i);
    });
  }
  for (std::size_t i = 0; i < opt_.clients; ++i) {
    g->clients[i]->spawn_thread("drive", [g, i](lynx::ThreadCtx& ctx) {
      return client_run(ctx, g, i);
    });
  }

  // The fault schedule.  Times are absolute; anything already in the
  // past (wiring overran it) fires immediately after construction.
  const auto at = [&engine](sim::Time t) { return std::max(t, engine.now()); };
  if (opt_.crash_primary_at > 0) {
    engine.schedule_at(at(opt_.crash_primary_at), [g] {
      g->crashed_primary = g->primary;
      g->metrics.crash_primary_time = g->engine->now();
      crash_node(g, g->primary);
    });
    engine.schedule_at(at(opt_.crash_primary_at + opt_.failover_delay), [g] {
      g->engine->spawn("view-change", view_change(g));
    });
  }
  if (opt_.restart_primary_at > 0) {
    engine.schedule_at(at(opt_.restart_primary_at), [g] {
      if (g->crashed_primary != SIZE_MAX &&
          !g->nodes[g->crashed_primary].alive) {
        g->engine->spawn("rejoin", rejoin(g, g->crashed_primary));
      }
    });
  }
  if (opt_.crash_backup_at > 0 && opt_.replicas >= 2) {
    const std::size_t victim = opt_.replicas - 1;
    engine.schedule_at(at(opt_.crash_backup_at), [g, victim] {
      if (g->primary != victim && g->nodes[victim].alive) {
        crash_node(g, victim);
      }
    });
  }
  if (opt_.restart_backup_at > 0 && opt_.replicas >= 2) {
    const std::size_t victim = opt_.replicas - 1;
    engine.schedule_at(at(opt_.restart_backup_at), [g, victim] {
      if (!g->nodes[victim].alive) {
        g->engine->spawn("rejoin", rejoin(g, victim));
      }
    });
  }
}

Group::~Group() = default;

std::uint64_t Group::view() const { return core_->view; }
std::size_t Group::primary_index() const { return core_->primary; }
bool Group::alive(std::size_t replica) const {
  return core_->nodes.at(replica).alive;
}
const Store& Group::store(std::size_t replica) const {
  return core_->nodes.at(replica).store;
}
const Metrics& Group::metrics() const { return core_->metrics; }
lynx::Process& Group::replica_process(std::size_t i) {
  return *core_->replicas.at(i);
}
lynx::Process& Group::client_process(std::size_t i) {
  return *core_->clients.at(i);
}
std::vector<std::string> Group::thread_failures() const {
  std::vector<std::string> out;
  const auto collect = [&out](const auto& procs) {
    for (const auto& p : procs) {
      for (const std::string& f : p->thread_failures()) out.push_back(f);
    }
  };
  collect(core_->replicas);
  collect(core_->clients);
  collect(core_->graveyard);
  return out;
}

std::optional<sim::Duration> Group::failover_recovery() const {
  if (core_->metrics.crash_primary_time == 0) return std::nullopt;
  for (const auto& [view, t] : core_->metrics.first_commit_in_view) {
    if (view >= 1) return t - core_->metrics.crash_primary_time;
  }
  return std::nullopt;
}

}  // namespace replica

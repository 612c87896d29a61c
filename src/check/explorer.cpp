#include "check/explorer.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <memory>
#include <thread>
#include <utility>

#include "check/linearizability.hpp"
#include "load/world.hpp"
#include "lynx/connect.hpp"
#include "lynx/lynx.hpp"
#include "replica/replica.hpp"
#include "sweep/sweep.hpp"
#include "trace/trace.hpp"

namespace check {

namespace {

using net::NodeId;

// The ack-storm window.  Starts after bootstrap wiring has finished on
// every substrate and ends early enough that the retransmit budgets
// below ride it out with room to spare.
constexpr sim::Time kStormFrom = sim::msec(60);
constexpr sim::Time kStormTo = sim::msec(310);

// Formation window armed by RunConfig::formation / PlanSpec::kBatchStorm.
constexpr sim::Duration kFormDelay = sim::msec(2);

[[nodiscard]] bool formation_on(const RunConfig& cfg) {
  return cfg.formation || cfg.plan == PlanSpec::kBatchStorm;
}

fault::Plan plan_of(PlanSpec spec) {
  switch (spec) {
    case PlanSpec::kNone:
      return {};
    case PlanSpec::kAckStorm:
      // Server node 0 -> client node 1 only: requests keep getting
      // through, but their acks and the replies do not.
      return fault::Plan{}.drop_between(kStormFrom, kStormTo, 1.0, NodeId(0),
                                        NodeId(1));
    case PlanSpec::kBatchStorm:
      // Both directions dark: whole form::Batch frames die, losing all
      // their enclosures at once; the transport must re-deliver them.
      return fault::Plan{}
          .drop_between(kStormFrom, kStormTo, 1.0, NodeId(0), NodeId(1))
          .drop_between(kStormFrom, kStormTo, 1.0, NodeId(1), NodeId(0));
    case PlanSpec::kPrimaryCrash:
    case PlanSpec::kPrimaryBounce:
    case PlanSpec::kBackupBounce:
      // Crash plans are executed by the replica group's fault schedule
      // (medium crash + process termination), not by frame dropping.
      return {};
  }
  return {};
}

[[nodiscard]] constexpr bool is_crash_plan(PlanSpec spec) {
  return spec == PlanSpec::kPrimaryCrash || spec == PlanSpec::kPrimaryBounce ||
         spec == PlanSpec::kBackupBounce;
}

// The echo universe: server node 0, client node 1, a medium wrapped in
// the plan (no medium, hence no plan and no medium invariants, on
// Chrysalis), on the default 16-node Butterfly.
load::WorldParams world_params(const RunConfig& cfg) {
  load::WorldParams p;
  // 8 x 100ms of retransmission outlasts the storm window.
  p.charlotte.send_retransmit_timeout = sim::msec(100);
  p.charlotte.max_send_attempts = 8;
  p.charlotte.debug_drop_reacks = cfg.inject_reack_bug;
  // 40 x 12ms of per-fragment retransmission outlasts the storm window.
  p.soda.ack_timeout = sim::msec(12);
  p.soda.max_transport_attempts = 40;
  if (formation_on(cfg)) p.form_delay = kFormDelay;
  p.bus_seed = cfg.seed;
  p.faults = plan_of(cfg.plan);
  p.fault_seed = cfg.seed;
  return p;
}

// Coroutine bodies are free functions (CP.51: no capturing coroutine
// lambdas); spawn sites wrap them in plain capturing lambdas.
sim::Task<> wire(lynx::Process* server, lynx::Process* client, int channels,
                 std::vector<lynx::LinkHandle>* server_ends,
                 std::vector<lynx::LinkHandle>* client_ends) {
  for (int ch = 0; ch < channels; ++ch) {
    auto [se, ce] = co_await lynx::connect_any(*server, *client);
    server_ends->push_back(se);
    client_ends->push_back(ce);
  }
}

sim::Task<> serve(lynx::ThreadCtx& ctx, lynx::LinkHandle link, int n) {
  ctx.enable_requests(link);
  for (int i = 0; i < n; ++i) {
    lynx::Incoming in = co_await ctx.receive();
    lynx::Message rep;
    rep.args = in.msg.args;
    co_await ctx.reply(in, std::move(rep));
  }
}

sim::Task<> drive(lynx::ThreadCtx& ctx, lynx::LinkHandle link, int n,
                  std::size_t bytes) {
  for (int i = 0; i < n; ++i) {
    lynx::Message m = lynx::make_message(
        "echo", {lynx::Bytes(bytes, static_cast<std::uint8_t>(i + 1))});
    (void)co_await ctx.call(link, std::move(m));
  }
}

}  // namespace

const char* to_string(PlanSpec spec) {
  switch (spec) {
    case PlanSpec::kNone: return "none";
    case PlanSpec::kAckStorm: return "ack-storm";
    case PlanSpec::kBatchStorm: return "batch-storm";
    case PlanSpec::kPrimaryCrash: return "primary-crash";
    case PlanSpec::kPrimaryBounce: return "primary-bounce";
    case PlanSpec::kBackupBounce: return "backup-bounce";
  }
  return "?";
}

std::optional<PlanSpec> plan_spec_from(std::string_view name) {
  if (name == "none") return PlanSpec::kNone;
  if (name == "ack-storm") return PlanSpec::kAckStorm;
  if (name == "batch-storm") return PlanSpec::kBatchStorm;
  if (name == "primary-crash") return PlanSpec::kPrimaryCrash;
  if (name == "primary-bounce") return PlanSpec::kPrimaryBounce;
  if (name == "backup-bounce") return PlanSpec::kBackupBounce;
  return std::nullopt;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kEcho: return "echo";
    case Workload::kReplica: return "replica";
  }
  return "?";
}

std::optional<Workload> workload_from(std::string_view name) {
  if (name == "echo") return Workload::kEcho;
  if (name == "replica") return Workload::kReplica;
  return std::nullopt;
}

namespace {

// Crash/restart instants per substrate, chosen to land mid-commit-stream
// for the default workload size: an op takes ~105 ms on Charlotte,
// ~38 ms on SODA, ~5 ms on Chrysalis (tests/replica/replica_test.cpp
// uses the same constants).
struct FaultTimes {
  sim::Time crash;
  sim::Time restart;
};

FaultTimes fault_times(load::Substrate s) {
  switch (s) {
    case load::Substrate::kCharlotte: return {sim::msec(300), sim::msec(700)};
    case load::Substrate::kSoda: return {sim::msec(120), sim::msec(280)};
    case load::Substrate::kChrysalis: return {sim::msec(20), sim::msec(45)};
  }
  return {sim::msec(100), sim::msec(200)};
}

replica::Options replica_options_of(const RunConfig& cfg) {
  replica::Options o;
  o.replicas = 3;
  o.clients = static_cast<std::size_t>(cfg.channels > 0 ? cfg.channels : 1);
  o.ops_per_client = cfg.calls;
  o.seed = cfg.seed;
  o.debug_stale_reads = cfg.inject_stale_bug;
  if (formation_on(cfg)) o.form_delay = kFormDelay;
  const FaultTimes ft = fault_times(cfg.substrate);
  switch (cfg.plan) {
    case PlanSpec::kPrimaryCrash:
      o.crash_primary_at = ft.crash;  // no restart: fail-over only
      break;
    case PlanSpec::kPrimaryBounce:
      o.crash_primary_at = ft.crash;
      o.restart_primary_at = ft.restart;
      break;
    case PlanSpec::kBackupBounce:
      o.crash_backup_at = ft.crash;
      o.restart_backup_at = ft.restart;
      break;
    default:
      break;
  }
  return o;
}

// The replica universe: the group builds the whole world (substrate,
// processes, fault schedule), so this path is mostly oracles.  The
// linearizability oracle leads — it is the one that understands
// replicated state; the reference model still checks the LYNX layer
// underneath it, with the expectation relaxed for orderly link death
// (clients terminate when done) and, under crash plans, for calls the
// crash cut short.
RunVerdict run_replica_one(const RunConfig& cfg) {
  sim::Engine engine;
  engine.set_tie_policy(
      {.kind = cfg.tie, .seed = cfg.seed, .horizon = cfg.horizon});
  trace::Recorder rec(engine, 1u << 18);
  replica::Group group(engine, cfg.substrate, replica_options_of(cfg));
  // A conforming run quiesces well inside a minute of simulated time
  // (slowest: Charlotte with a late restart, ~1.5 s); running against a
  // horizon turns "wedged forever" into a reportable verdict.
  const bool finished = engine.run_until(sim::sec(60));

  RunVerdict v;
  v.trace_digest = rec.digest();
  v.records = rec.total_emitted();

  const LinVerdict lin = check_trace(rec);
  v.calls_checked = lin.ops_checked;

  Expectation exp;
  exp.allowed_errors = {lynx::ErrorKind::kLinkDestroyed};
  exp.require_completion = !is_crash_plan(cfg.plan);
  ReferenceModel model(exp);
  const bool conforms = model.replay(rec);

  const std::uint64_t expected_ops =
      static_cast<std::uint64_t>(group.options().clients) *
      static_cast<std::uint64_t>(group.options().ops_per_client);
  const auto threads = group.thread_failures();
  if (!lin.ok) {
    v.failure = "linearizability: " + lin.failure;
  } else if (!finished) {
    v.failure = "wedged: engine still busy at the 60s horizon";
  } else if (!conforms) {
    v.divergence = model.divergence();
    v.failure = v.divergence->render();
  } else if (group.invariant_violation().has_value()) {
    v.failure = "medium invariant: " + *group.invariant_violation();
  } else if (!engine.process_failures().empty()) {
    v.failure = "process failure: " + engine.process_failures().front();
  } else if (!threads.empty()) {
    v.failure = "thread failure: " + threads.front();
  } else if (cfg.plan == PlanSpec::kNone &&
             (group.metrics().ok != expected_ops || group.metrics().err != 0)) {
    v.failure = "workload mismatch: expected " + std::to_string(expected_ops) +
                " ok ops, saw " + std::to_string(group.metrics().ok) + " ok + " +
                std::to_string(group.metrics().err) + " err";
  } else {
    v.ok = true;
  }
  return v;  // the Group's World shuts the engine down as it unwinds
}

}  // namespace

RunVerdict run_one(const RunConfig& cfg) {
  if (cfg.workload == Workload::kReplica) return run_replica_one(cfg);
  sim::Engine engine;
  // Tie-break keys are assigned at schedule time: the policy must be in
  // place before the first construction schedules anything.
  engine.set_tie_policy(
      {.kind = cfg.tie, .seed = cfg.seed, .horizon = cfg.horizon});
  trace::Recorder rec(engine, 1u << 18);

  load::World world(engine, cfg.substrate, world_params(cfg));
  lynx::Process* server = &world.make_process("server", 0);
  lynx::Process* client = &world.make_process("client", 1);
  server->start();
  client->start();
  // cfg.channels independent links; per-channel server and client
  // threads with identical costs give the permutation policy genuine
  // same-instant ties to reorder.
  const int channels = cfg.channels > 0 ? cfg.channels : 1;
  std::vector<lynx::LinkHandle> server_ends;
  std::vector<lynx::LinkHandle> client_ends;
  engine.spawn("wire",
               wire(server, client, channels, &server_ends, &client_ends));
  engine.run();

  const int n = cfg.calls;
  const std::size_t bytes = cfg.bytes;
  for (int ch = 0; ch < channels; ++ch) {
    const lynx::LinkHandle server_end = server_ends.at(ch);
    const lynx::LinkHandle client_end = client_ends.at(ch);
    server->spawn_thread("srv" + std::to_string(ch),
                         [server_end, n](lynx::ThreadCtx& ctx) {
                           return serve(ctx, server_end, n);
                         });
    client->spawn_thread("cli" + std::to_string(ch),
                         [client_end, n, bytes](lynx::ThreadCtx& ctx) {
                           return drive(ctx, client_end, n, bytes);
                         });
  }
  engine.run();

  RunVerdict v;
  v.trace_digest = rec.digest();
  v.records = rec.total_emitted();

  ReferenceModel model;  // clean expectation: zero errors, full completion
  const bool conforms = model.replay(rec);
  v.calls_checked = model.calls_checked();
  if (!conforms) {
    v.divergence = model.divergence();
    v.failure = v.divergence->render();
  } else if (world.invariant_violation().has_value()) {
    v.failure = "medium invariant: " + *world.invariant_violation();
  } else if (!engine.process_failures().empty()) {
    v.failure = "process failure: " + engine.process_failures().front();
  } else if (!server->thread_failures().empty()) {
    v.failure = "thread failure: " + server->thread_failures().front();
  } else if (!client->thread_failures().empty()) {
    v.failure = "thread failure: " + client->thread_failures().front();
  } else if (model.calls_checked() !=
             static_cast<std::uint64_t>(cfg.calls) * channels) {
    v.failure = "workload mismatch: expected " +
                std::to_string(cfg.calls * channels) + " calls, model saw " +
                std::to_string(model.calls_checked());
  } else {
    v.ok = true;
  }
  return v;  // ~World shuts the engine down before its members unwind
}

// ---- repro tokens ----------------------------------------------------

std::string to_json(const RunConfig& cfg) {
  std::string j = "{\"v\":1";
  j += ",\"substrate\":\"" + std::string(load::to_string(cfg.substrate)) + "\"";
  j += ",\"tie\":\"" + std::string(sim::to_string(cfg.tie)) + "\"";
  j += ",\"seed\":" + std::to_string(cfg.seed);
  if (cfg.horizon != sim::TiePolicy::kNoHorizon) {
    j += ",\"horizon\":" + std::to_string(cfg.horizon);
  }
  j += ",\"plan\":\"" + std::string(to_string(cfg.plan)) + "\"";
  if (cfg.workload != Workload::kEcho) {
    j += ",\"workload\":\"" + std::string(to_string(cfg.workload)) + "\"";
  }
  j += ",\"channels\":" + std::to_string(cfg.channels);
  j += ",\"calls\":" + std::to_string(cfg.calls);
  j += ",\"bytes\":" + std::to_string(cfg.bytes);
  if (cfg.inject_reack_bug) j += ",\"bug\":1";
  if (cfg.inject_stale_bug) j += ",\"stale\":1";
  if (cfg.formation) j += ",\"form\":1";
  j += "}";
  return j;
}

namespace {

// Minimal flat-JSON field extraction — tokens are machine-written, one
// level deep, and dependency-free parsing beats vendoring a library.
std::optional<std::string_view> json_raw(std::string_view j,
                                         std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t pos = j.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  std::size_t i = pos + needle.size();
  while (i < j.size() && j[i] == ' ') ++i;
  if (i >= j.size()) return std::nullopt;
  if (j[i] == '"') {
    const std::size_t end = j.find('"', i + 1);
    if (end == std::string_view::npos) return std::nullopt;
    return j.substr(i + 1, end - i - 1);
  }
  std::size_t end = i;
  while (end < j.size() && (std::isdigit(static_cast<unsigned char>(j[end])) != 0)) {
    ++end;
  }
  if (end == i) return std::nullopt;
  return j.substr(i, end - i);
}

std::optional<std::uint64_t> json_u64(std::string_view j,
                                      std::string_view key) {
  const auto raw = json_raw(j, key);
  if (!raw.has_value()) return std::nullopt;
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(raw->data(), raw->data() + raw->size(), out);
  if (ec != std::errc{} || ptr != raw->data() + raw->size()) {
    return std::nullopt;
  }
  return out;
}

std::optional<load::Substrate> substrate_from(std::string_view name) {
  for (load::Substrate s : load::all_substrates()) {
    if (name == load::to_string(s)) return s;
  }
  return std::nullopt;
}

std::optional<sim::TieBreak> tie_from(std::string_view name) {
  for (sim::TieBreak t :
       {sim::TieBreak::kFifo, sim::TieBreak::kSeededPermutation,
        sim::TieBreak::kPriorityFuzz}) {
    if (name == sim::to_string(t)) return t;
  }
  return std::nullopt;
}

}  // namespace

std::optional<RunConfig> parse_token(std::string_view json) {
  RunConfig cfg;
  const auto substrate = json_raw(json, "substrate");
  const auto tie = json_raw(json, "tie");
  const auto seed = json_u64(json, "seed");
  const auto plan = json_raw(json, "plan");
  if (!substrate || !tie || !seed || !plan) return std::nullopt;
  const auto sub = substrate_from(*substrate);
  const auto tb = tie_from(*tie);
  const auto ps = plan_spec_from(*plan);
  if (!sub || !tb || !ps) return std::nullopt;
  cfg.substrate = *sub;
  cfg.tie = *tb;
  cfg.seed = *seed;
  cfg.plan = *ps;
  if (const auto w = json_raw(json, "workload")) {
    const auto wl = workload_from(*w);
    if (!wl) return std::nullopt;
    cfg.workload = *wl;
  }
  if (const auto h = json_u64(json, "horizon")) cfg.horizon = *h;
  if (const auto ch = json_u64(json, "channels")) {
    cfg.channels = static_cast<int>(*ch);
  }
  if (const auto c = json_u64(json, "calls")) cfg.calls = static_cast<int>(*c);
  if (const auto b = json_u64(json, "bytes")) {
    cfg.bytes = static_cast<std::size_t>(*b);
  }
  if (const auto bug = json_u64(json, "bug")) {
    cfg.inject_reack_bug = *bug != 0;
  }
  if (const auto stale = json_u64(json, "stale")) {
    cfg.inject_stale_bug = *stale != 0;
  }
  if (const auto form = json_u64(json, "form")) {
    cfg.formation = *form != 0;
  }
  return cfg;
}

// ---- shrinking -------------------------------------------------------

RunConfig shrink(const RunConfig& failing, std::uint64_t* runs) {
  // FIFO ignores the seed and the horizon: nothing to shrink.
  if (failing.tie == sim::TieBreak::kFifo) return failing;

  auto fails_at = [&](std::uint64_t horizon) {
    RunConfig probe = failing;
    probe.horizon = horizon;
    if (runs != nullptr) ++*runs;
    return !run_one(probe).ok;
  };

  // Horizon 0 degenerates to FIFO order: a failure that survives it is
  // schedule-independent, the strongest possible shrink.
  if (fails_at(0)) {
    RunConfig out = failing;
    out.horizon = 0;
    return out;
  }

  // Exponential envelope: find some failing horizon.
  std::uint64_t lo = 1;
  std::uint64_t hi = 1;
  constexpr std::uint64_t kGiveUp = 1ull << 32;
  while (!fails_at(hi)) {
    lo = hi + 1;
    hi *= 2;
    if (hi > kGiveUp) return failing;  // keep the full-horizon repro
  }
  // Bisect down to the smallest failing horizon in [lo, hi].  The
  // predicate need not be monotone; the invariant "hi fails" is
  // maintained at every step, so the result is verified failing.
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (fails_at(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  RunConfig out = failing;
  out.horizon = hi;
  return out;
}

// ---- the sweep -------------------------------------------------------

ExploreResult explore(const ExploreOptions& opts) {
  // Phase 1: materialize the cross product in its historical loop
  // order.  The list, not the loop nest, is what runs — sequentially or
  // fanned out — so both modes see identical configs in identical order.
  std::vector<RunConfig> configs;
  for (load::Substrate substrate : opts.substrates) {
    for (PlanSpec plan : opts.plans) {
      // Plan applicability: ack-storm impairs a medium (Chrysalis has
      // none) and is tuned for the echo pair; the crash plans drive the
      // replica group's fault schedule and work on every substrate.
      if ((plan == PlanSpec::kAckStorm || plan == PlanSpec::kBatchStorm) &&
          (substrate == load::Substrate::kChrysalis ||
           opts.workload != Workload::kEcho)) {
        continue;
      }
      if (is_crash_plan(plan) && opts.workload != Workload::kReplica) {
        continue;
      }
      for (sim::TieBreak tie : opts.policies) {
        for (std::uint64_t s = 0; s < opts.seeds; ++s) {
          RunConfig cfg;
          cfg.substrate = substrate;
          cfg.tie = tie;
          cfg.seed = opts.first_seed + s;
          cfg.plan = plan;
          cfg.workload = opts.workload;
          cfg.channels = opts.channels;
          cfg.calls = opts.calls;
          cfg.bytes = opts.bytes;
          cfg.inject_reack_bug = opts.inject_reack_bug &&
                                 opts.workload == Workload::kEcho &&
                                 substrate == load::Substrate::kCharlotte;
          cfg.inject_stale_bug =
              opts.inject_stale_bug && opts.workload == Workload::kReplica;
          cfg.formation = opts.formation;
          configs.push_back(cfg);
        }
      }
    }
  }

  // Phase 2: run every config.  run_one is a pure function of its
  // RunConfig (one private Engine per call), so the fan-out is embarrassingly
  // parallel; sweep::map returns verdicts in config order.
  std::vector<RunVerdict> verdicts;
  if (opts.threads == 1 || configs.size() < 2) {
    verdicts.reserve(configs.size());
    for (const RunConfig& cfg : configs) verdicts.push_back(run_one(cfg));
  } else {
    sweep::ThreadPool pool(opts.threads == 0
                               ? std::max(1u, std::thread::hardware_concurrency())
                               : opts.threads);
    verdicts = sweep::map(
        configs, [](const RunConfig& cfg) { return run_one(cfg); }, pool);
  }

  // Phase 3: digest + shrink, sequentially and in order — shrink probes
  // share state (run counters) and their own bisection is inherently
  // serial, so parallelism stops at the sweep boundary.
  ExploreResult res;
  res.runs = configs.size();
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
  auto fold = [&digest](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 1099511628211ull;  // FNV prime
    }
  };
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const RunConfig& cfg = configs[i];
    RunVerdict& verdict = verdicts[i];
    fold(verdict.trace_digest);
    if (verdict.ok) continue;
    FailureReport report;
    report.config = cfg;
    report.minimized =
        opts.shrink_failures ? shrink(cfg, &res.shrink_runs) : cfg;
    report.verdict = report.minimized.horizon == cfg.horizon
                         ? std::move(verdict)
                         : run_one(report.minimized);
    res.failures.push_back(std::move(report));
  }
  res.sweep_digest = digest;
  return res;
}

}  // namespace check

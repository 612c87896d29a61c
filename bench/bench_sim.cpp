// E17: bench_sim — how fast is the simulator itself?
//
// Every capacity number the other benches publish is bounded by the
// discrete-event engine's wall-clock throughput: a million-request
// window is only affordable if the engine retires tens of millions of
// events per second.  This bench measures exactly that, as
// simulated-events-per-wall-second (the BENCH_SIM trajectory), on three
// workloads:
//
//   * storm      — a raw engine event storm (self-rescheduling chains
//                  with same-instant bursts, no kernels): pure event
//                  queue cost, the tentpole's microbenchmark.
//   * cancel     — arm-then-cancel timer churn (the retransmit-timer
//                  pattern every kernel uses): cancellation path cost.
//   * fanin      — the engine-level fan-in scenario (the acceptance
//                  workload for the queue overhaul): 4096 producers
//                  fanning into one sink, every delivery carrying a
//                  frame-sized closure payload.  Queue depth stays in
//                  the thousands, so this is exactly the regime where
//                  the old binary heap paid a deep sift plus a
//                  std::function heap allocation per event.
//   * fanin-*    — the E12 fan-in-4x1 open-loop scenario per substrate:
//                  the full stack (kernels, media, trace gate, LYNX
//                  runtimes) driven at a fixed offered rate.  This is
//                  the acceptance workload: events/wall-second here is
//                  what bounds bench_capacity and the explorer sweeps.
//   * recv-dead-ends-{0,4096} — a closed-loop client calling one
//                  Chrysalis server that also holds 0 or 4096 open
//                  request queues whose peers are destroyed: what a
//                  receive() costs per end the process holds.
//
// Flags (bench::init): --json-out, --seed, --smoke for the CI-sized
// version, and --baseline=PATH to gate each metric against its
// "<metric>_floor" in events per second (bench/baselines/sim.json):
// exits 1 when any measured metric drops below its floor or has none,
// so CI catches an engine slowdown in the change that introduces it.
// recv-dead-ends is gated instead on the ratio of its two rates
// ("recv-dead-ends_ratio_floor"), which does not drift with host speed:
// the median over alternating 0/4096 pairs, so a burst of host load
// during one side of one pair moves one ratio, not the gated number.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "load/load.hpp"

namespace {

using namespace bench;

// ---- wall-clock measurement ------------------------------------------------

double wall_seconds_since(
    std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double>(dt).count();
}

struct Metric {
  std::string name;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  // A workload's checksum of its event payloads; asserted equal across
  // reps, which keeps the payload work observable to the optimiser.
  std::uint64_t sink = 0;
  [[nodiscard]] double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0;
  }
};

// ---- storm: raw engine event throughput ------------------------------------

// splitmix64, the engine's own mixing function: the storm's delays are a
// pure function of (seed, event index), so the workload is identical
// run over run and engine over engine.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// `chains` self-rescheduling event chains, each firing `hops` times.
// Delays are 0..127 us, so chains collide on the same instant constantly
// (the FIFO tie-break path) and spread across timer-wheel buckets; every
// 8th hop is a zero-delay reschedule (the spawn/mailbox fairness-point
// pattern).
Metric run_storm(std::uint64_t seed, int chains, int hops) {
  sim::Engine e;
  std::int64_t remaining = static_cast<std::int64_t>(chains) * hops;
  const auto t0 = std::chrono::steady_clock::now();
  struct Chain {
    sim::Engine* e;
    std::int64_t* remaining;
    std::uint64_t state;
    void fire() {
      if (--*remaining <= 0) return;
      state = mix(state);
      const sim::Duration d =
          (state & 7) == 0 ? 0 : sim::usec(static_cast<std::int64_t>(state & 127));
      e->schedule(d, [c = *this]() mutable { c.fire(); });
    }
  };
  for (int i = 0; i < chains; ++i) {
    Chain c{&e, &remaining, seed * 0x9e3779b9ULL + static_cast<std::uint64_t>(i)};
    e.schedule(sim::usec(i), [c]() mutable { c.fire(); });
  }
  e.run();
  return {"storm", e.events_fired(), wall_seconds_since(t0)};
}

// Arm-then-cancel churn: every fired event arms a far-future cancellable
// "retransmit timer" and cancels the one it armed last hop — the
// steady-state pattern of a kernel under load (timers almost never
// fire; they are armed, outlived by the ack, and cancelled).
Metric run_cancel_storm(std::uint64_t seed, int chains, int hops) {
  sim::Engine e;
  std::int64_t remaining = static_cast<std::int64_t>(chains) * hops;
  const auto t0 = std::chrono::steady_clock::now();
  struct Chain {
    sim::Engine* e;
    std::int64_t* remaining;
    std::uint64_t state;
    sim::TimerHandle armed;
    void fire() {
      armed.cancel();
      if (--*remaining <= 0) return;
      state = mix(state);
      armed = e->schedule_cancellable(sim::msec(50), [] {});
      e->schedule(sim::usec(static_cast<std::int64_t>(state & 63) + 1),
                  [c = *this]() mutable { c.fire(); });
    }
  };
  for (int i = 0; i < chains; ++i) {
    Chain c{&e, &remaining, seed + static_cast<std::uint64_t>(i) * 7919, {}};
    e.schedule(sim::usec(i), [c]() mutable { c.fire(); });
  }
  e.run();
  return {"cancel", e.events_fired(), wall_seconds_since(t0)};
}

// The engine-level fan-in scenario: `sources` producers fan into one
// sink, each delivery carrying a frame-sized payload (56-byte capture —
// the size a media frame-delivery closure actually has; far past
// std::function's 16-byte small-buffer, comfortably inside EventFn's 64).
// Delays spread deliveries across ~2 ms so thousands of events are
// pending at once, and every 64th delivery is scheduled at a
// retransmit-horizon 8 ms out to exercise the overflow-heap path.
Metric run_fanin_storm(std::uint64_t seed, int sources, int rounds) {
  sim::Engine e;
  std::int64_t remaining = static_cast<std::int64_t>(sources) * rounds;
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  struct Source {
    sim::Engine* e;
    std::int64_t* remaining;
    std::uint64_t* sink;
    std::uint64_t state;
    void fire() {
      if (--*remaining <= 0) return;
      state = mix(state);
      struct Payload {
        std::uint64_t words[3];
      } p{{state, state ^ 0xa5a5a5a5a5a5a5a5ULL, ~state}};
      const sim::Duration d =
          (state & 63) == 0
              ? sim::msec(8)
              : sim::usec(static_cast<std::int64_t>(state & 2047));
      e->schedule(d, [c = *this, p]() mutable {
        *c.sink += p.words[0] ^ p.words[1] ^ p.words[2];
        c.fire();
      });
    }
  };
  for (int i = 0; i < sources; ++i) {
    Source s{&e, &remaining, &sink,
             mix(seed ^ (0x517cc1b727220a95ULL * static_cast<std::uint64_t>(i + 1)))};
    e.schedule(sim::usec(i & 1023), [s]() mutable { s.fire(); });
  }
  e.run();
  return {"fanin", e.events_fired(), wall_seconds_since(t0), sink};
}

// ---- fan-in: the E12 capacity workload, timed on the wall ------------------

// The E12 fan-in scenario scaled out to a fleet: 64 clients fanning in
// on 16 server processes (client i → server i mod 16), at a fixed
// offered rate per substrate (roughly 16× each kernel's single-server
// sustainable rate, so the event mix is steady-state request service,
// not queueing divergence).  The metric divides the engine's
// fired-event count by the wall-clock of the whole run — exactly the
// regime ROADMAP item 2's "1 000+-node fleets, million-request windows"
// cares about.
load::Scenario fanin_scenario(bool smoke, double rate) {
  load::Scenario sc;
  sc.name = "fleet-fanin-64x16";
  sc.clients = 64;
  sc.servers = 16;
  sc.arrival = load::Arrival::kOpenPoisson;
  sc.mix = {{64, 64, 1.0}};
  sc.seed = bench::seed();
  sc.offered_rate = rate;
  if (smoke) {
    sc.warmup = sim::msec(250);
    sc.measure = sim::sec(4);
    sc.drain = sim::msec(500);
  } else {
    sc.warmup = sim::sec(1);
    sc.measure = sim::sec(20);
    sc.drain = sim::sec(2);
  }
  return sc;
}

double fanin_rate_for(load::Substrate sub) {
  switch (sub) {
    case load::Substrate::kCharlotte: return 480.0;
    case load::Substrate::kSoda: return 1024.0;
    case load::Substrate::kChrysalis: return 3584.0;
  }
  return 480.0;
}

Metric run_fanin(load::Substrate sub, bool smoke) {
  const auto t0 = std::chrono::steady_clock::now();
  load::Runner runner(sub, fanin_scenario(smoke, fanin_rate_for(sub)));
  const load::Report r = runner.run();
  Metric m{std::string("fanin-") + to_string(sub),
           runner.engine().events_fired(), wall_seconds_since(t0)};
  RELYNX_ASSERT_MSG(r.errors == 0, "fan-in run must be clean");
  RELYNX_ASSERT_MSG(r.samples > 0, "fan-in run must complete requests");
  return m;
}

// ---- recv-dead-ends: receive() past peer-destroyed open ends -------------

// One Chrysalis server, built through load::World, holds one live link
// and `dead` more whose client ends the client destroys before it
// starts calling.  The server keeps every request queue open, so a
// receive() that walked its ends would pay O(dead) per request.  Only
// the client's call loop is timed: set-up grows with `dead`.
struct DeadEnds {
  std::vector<lynx::LinkHandle> server_ends;  // [0] is the live link
  std::vector<lynx::LinkHandle> client_ends;
  int calls = 0;
  std::uint64_t events = 0;  // fired during the call loop
  double wall_s = 0.0;
  std::uint64_t sink = 0;
};

sim::Task<> dead_ends_wire(lynx::Process* server, lynx::Process* client,
                           std::size_t links, DeadEnds* d) {
  for (std::size_t i = 0; i < links; ++i) {
    auto [se, ce] = co_await lynx::connect_any(*server, *client);
    d->server_ends.push_back(se);
    d->client_ends.push_back(ce);
  }
}

sim::Task<> dead_ends_server(lynx::ThreadCtx& ctx, DeadEnds* d) {
  for (lynx::LinkHandle h : d->server_ends) ctx.enable_requests(h);
  try {
    for (;;) {
      lynx::Incoming in = co_await ctx.receive();
      lynx::Message rep;
      rep.args = in.msg.args;
      co_await ctx.reply(in, std::move(rep));
    }
  } catch (const lynx::LynxError&) {
    // The client exited: every open request queue is destroyed.
  }
}

sim::Task<> dead_ends_client(lynx::ThreadCtx& ctx, DeadEnds* d) {
  for (std::size_t i = 1; i < d->client_ends.size(); ++i) {
    co_await ctx.destroy(d->client_ends[i]);
  }
  const std::uint64_t events0 = ctx.engine().events_fired();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < d->calls; ++i) {
    lynx::Message req = lynx::make_message("echo", {std::int64_t{i}});
    lynx::Message rep = co_await ctx.call(d->client_ends[0], std::move(req));
    d->sink +=
        static_cast<std::uint64_t>(std::get<std::int64_t>(rep.args.at(0)));
  }
  d->wall_s = wall_seconds_since(t0);
  d->events = ctx.engine().events_fired() - events0;
}

Metric run_dead_ends(std::size_t dead, int calls) {
  sim::Engine e;
  load::World world(e, load::Substrate::kChrysalis);
  lynx::Process& server = world.make_process("server", 0);
  lynx::Process& client = world.make_process("client", 1);
  server.start();
  client.start();
  DeadEnds d;
  d.calls = calls;
  e.spawn("wire", dead_ends_wire(&server, &client, dead + 1, &d));
  e.run();
  server.spawn_thread("serve", [&d](lynx::ThreadCtx& ctx) {
    return dead_ends_server(ctx, &d);
  });
  client.spawn_thread("call", [&d](lynx::ThreadCtx& ctx) {
    return dead_ends_client(ctx, &d);
  });
  e.run();
  const auto n = static_cast<std::uint64_t>(calls);
  RELYNX_ASSERT_MSG(d.sink == n * (n - 1) / 2,
                    "recv-dead-ends: every call must be answered");
  return {"recv-dead-ends-" + std::to_string(dead), d.events, d.wall_s,
          d.sink};
}

// ---- reporting ------------------------------------------------------------

void report(const Metric& m) {
  std::printf("%-20s %14llu events %10.3f s %16.0f events/s\n",
              m.name.c_str(), static_cast<unsigned long long>(m.events),
              m.wall_s, m.events_per_sec());
  json()
      .field("kind", "sim_speed")
      .field("metric", m.name)
      .field("events", static_cast<std::int64_t>(m.events))
      .field("wall_s", m.wall_s)
      .field("events_per_sec", m.events_per_sec())
      .emit();
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "sim");
  const bool smoke = bench::smoke();

  table_header("E17: simulator speed (simulated events per wall-second)");
  std::printf("%-20s %21s %12s %25s\n", "workload", "fired", "wall", "rate");

  // Two reps per metric, best-of: the first rep also pages everything
  // in, so best-of-2 is a cheap warm-cache number without a separate
  // warmup phase.
  const int reps = smoke ? 2 : 3;
  const int storm_chains = 256;
  const int storm_hops = smoke ? 4000 : 20000;
  const int calls = smoke ? 5000 : 20000;
  const int dead_end_pairs = 9;
  std::vector<Metric> metrics;
  auto keep_best = [](Metric& best, const Metric& m) {
    RELYNX_ASSERT_MSG(m.events == best.events && m.sink == best.sink,
                      "sim workloads must be deterministic");
    if (m.events_per_sec() > best.events_per_sec()) best = m;
  };
  auto best_of = [&](auto fn) {
    Metric best = fn();
    for (int r = 1; r < reps; ++r) keep_best(best, fn());
    return best;
  };

  metrics.push_back(
      best_of([&] { return run_storm(bench::seed(), storm_chains, storm_hops); }));
  metrics.push_back(best_of(
      [&] { return run_cancel_storm(bench::seed(), storm_chains, storm_hops / 2); }));
  metrics.push_back(best_of([&] {
    return run_fanin_storm(bench::seed(), 4096, smoke ? 500 : 2500);
  }));
  for (load::Substrate sub : load::all_substrates()) {
    metrics.push_back(best_of([&] { return run_fanin(sub, smoke); }));
  }
  // Rate with 4096 dead ends over the rate without, pair by pair: near
  // 1 when receive() does not walk them.  The rows report each side's
  // best run.
  Metric live_only = run_dead_ends(0, calls);
  Metric with_dead = run_dead_ends(4096, calls);
  std::vector<double> ratios{with_dead.events_per_sec() /
                             live_only.events_per_sec()};
  for (int k = 1; k < dead_end_pairs; ++k) {
    const Metric live = run_dead_ends(0, calls);
    const Metric dead = run_dead_ends(4096, calls);
    ratios.push_back(dead.events_per_sec() / live.events_per_sec());
    keep_best(live_only, live);
    keep_best(with_dead, dead);
  }
  std::sort(ratios.begin(), ratios.end());
  const double dead_ends_ratio = ratios[ratios.size() / 2];
  for (const Metric& m : metrics) report(m);
  report(live_only);
  report(with_dead);
  std::printf("%-20s %60.3f\n", "recv-dead-ends 4096/0", dead_ends_ratio);
  json()
      .field("kind", "sim_speed_ratio")
      .field("metric", "recv-dead-ends")
      .field("ratio", dead_ends_ratio)
      .emit();

  // Each metric is gated against "<name>_floor" (events per
  // wall-second) in every --baseline file.  Floors sit well under a
  // healthy run — CI machines are noisy — so a trip means a structural
  // slowdown, not scheduler jitter.
  bool gate_ok = true;
  for (const std::string& path : baseline_paths()) {
    const std::string text = read_file(path).value_or("");
    for (const Metric& m : metrics) {
      gate_ok = gate(m.name, "events_per_sec", m.events_per_sec(),
                     json_number_field(text, m.name + "_floor"),
                     Better::kHigher, 0.0) &&
                gate_ok;
    }
    gate_ok = gate("recv-dead-ends", "ratio", dead_ends_ratio,
                   json_number_field(text, "recv-dead-ends_ratio_floor"),
                   Better::kHigher, 0.0) &&
              gate_ok;
  }
  return gate_ok ? 0 : 1;
}

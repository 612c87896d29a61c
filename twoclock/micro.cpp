#include "micro.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <queue>
#include <unordered_map>

#include "chrysalis/kernel.hpp"
#include "lynx/message.hpp"
#include "net/butterfly_switch.hpp"
#include "sim/engine.hpp"

namespace twoclock {
namespace {

constexpr int kBatches = 5;
constexpr int kProbeOps = 50000;

using Clock = std::chrono::steady_clock;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double elapsed_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// One self-rescheduling chain of the storm.  Delays of 0..127 us make
// chains collide on the same instant and spread over wheel buckets.
struct Chain {
  sim::Engine* engine = nullptr;
  std::uint64_t state = 0;
  int hops_left = 0;
  std::uint64_t* fired = nullptr;
  sim::Time* last = nullptr;
  bool* monotone = nullptr;
};

void hop(Chain* c) {
  if (c->engine->now() < *c->last) *c->monotone = false;
  *c->last = c->engine->now();
  ++*c->fired;
  if (--c->hops_left == 0) return;
  c->state = splitmix(c->state);
  c->engine->schedule(sim::usec(static_cast<std::int64_t>(c->state % 128)),
                      [c] { hop(c); });
}

}  // namespace

MicroResult engine_storm() {
  constexpr int kChains = 1024;
  constexpr int kHops = 256;
  MicroResult out{"sim.storm_ns_per_event", "ns", 0.0, true};
  std::vector<double> per_event;
  for (int b = 0; b < kBatches; ++b) {
    sim::Engine engine;
    std::uint64_t fired = 0;
    sim::Time last = 0;
    bool monotone = true;
    std::vector<Chain> chains(kChains);
    for (int i = 0; i < kChains; ++i) {
      chains[i] = Chain{&engine, splitmix(static_cast<std::uint64_t>(i)),
                        kHops, &fired, &last, &monotone};
      Chain* c = &chains[i];
      engine.schedule(0, [c] { hop(c); });
    }
    const auto t0 = Clock::now();
    engine.run();
    const double ns = elapsed_ns(t0);
    const std::uint64_t expect = std::uint64_t{kChains} * kHops;
    out.ok = out.ok && monotone && fired == expect &&
             engine.events_fired() == expect;
    per_event.push_back(ns / static_cast<double>(expect));
  }
  out.value = median(per_event);
  return out;
}

std::vector<MicroResult> message_codec() {
  struct Case {
    const char* tag;
    lynx::Message msg;
  };
  // The workloads' request shape at each of their payload sizes, and a
  // move-churn "move" request carrying one link end.
  auto rpc = [](std::size_t n) {
    return lynx::make_message("rpc", {std::int64_t{64}, std::int64_t{0x5a},
                                      lynx::Bytes(n, 0x5a)});
  };
  std::vector<Case> cases = {
      {"64", rpc(64)},
      {"1000", rpc(1000)},
      {"1800", rpc(1800)},
      {"link",
       lynx::make_message("move", {std::int64_t{7}, lynx::LinkHandle(3)})},
  };
  constexpr int kIters = 20000;
  std::vector<MicroResult> out;
  for (const Case& c : cases) {
    MicroResult ser{std::string("message.serialize_ns.") + c.tag, "ns", 0.0,
                     true};
    MicroResult de{std::string("message.deserialize_ns.") + c.tag, "ns", 0.0,
                    true};
    std::vector<double> ser_ns, de_ns;
    for (int b = 0; b < kBatches; ++b) {
      std::size_t sink = 0;
      lynx::Serialized s;
      auto t0 = Clock::now();
      for (int i = 0; i < kIters; ++i) {
        s = lynx::serialize(c.msg);
        sink += s.body.size();
      }
      ser_ns.push_back(elapsed_ns(t0) / kIters);
      lynx::Message back;
      t0 = Clock::now();
      for (int i = 0; i < kIters; ++i) {
        back = lynx::deserialize(s.body, s.enclosures);
        sink += back.args.size();
      }
      de_ns.push_back(elapsed_ns(t0) / kIters);
      const bool round_trip = back.op == c.msg.op && back.args == c.msg.args;
      const std::size_t expect =
          kIters * (s.body.size() + c.msg.args.size());
      ser.ok = ser.ok && sink == expect;
      de.ok = de.ok && round_trip;
    }
    ser.value = median(ser_ns);
    de.value = median(de_ns);
    out.push_back(ser);
    out.push_back(de);
  }
  return out;
}

namespace {

sim::Task<> pinger(chrysalis::Kernel* k, chrysalis::Pid me, chrysalis::DqId out,
                   chrysalis::DqId in, chrysalis::EventId ev, int rounds,
                   bool* ok) {
  for (int i = 0; i < rounds; ++i) {
    if (co_await k->enqueue(me, out, static_cast<std::uint32_t>(i)) !=
        chrysalis::Status::kOk) {
      *ok = false;
      co_return;
    }
    auto r = co_await k->dequeue_wait(me, in, ev);
    if (!r.ok() || r.value() != static_cast<std::uint32_t>(i) + 1) {
      *ok = false;
      co_return;
    }
  }
}

sim::Task<> ponger(chrysalis::Kernel* k, chrysalis::Pid me, chrysalis::DqId out,
                   chrysalis::DqId in, chrysalis::EventId ev, int rounds,
                   bool* ok) {
  for (int i = 0; i < rounds; ++i) {
    auto r = co_await k->dequeue_wait(me, in, ev);
    if (!r.ok() || co_await k->enqueue(me, out, r.value() + 1) !=
                       chrysalis::Status::kOk) {
      *ok = false;
      co_return;
    }
  }
}

struct Ends {
  chrysalis::DqId q_ab, q_ba;
  chrysalis::EventId ev_a, ev_b;
};

sim::Task<> make_ends(chrysalis::Kernel* k, chrysalis::Pid a,
                      chrysalis::Pid b, Ends* e, bool* ok) {
  auto qa = co_await k->make_dual_queue(b, 64);
  auto qb = co_await k->make_dual_queue(a, 64);
  auto ea = co_await k->make_event(a);
  auto eb = co_await k->make_event(b);
  if (!qa.ok() || !qb.ok() || !ea.ok() || !eb.ok()) {
    *ok = false;
    co_return;
  }
  *e = Ends{qa.value(), qb.value(), ea.value(), eb.value()};
}

}  // namespace

MicroResult dual_queue_pingpong() {
  constexpr int kRounds = 20000;
  MicroResult out{"kernel.dq_pingpong_us", "us", 0.0, true};
  std::vector<double> per_round;
  for (int b = 0; b < kBatches; ++b) {
    sim::Engine engine;
    net::ButterflyParams fabric;
    fabric.nodes = 2;
    chrysalis::Kernel kernel(engine, fabric);
    const chrysalis::Pid a = kernel.create_process(net::NodeId(0));
    const chrysalis::Pid p = kernel.create_process(net::NodeId(1));
    Ends e;
    bool ok = true;
    engine.spawn("ends", make_ends(&kernel, a, p, &e, &ok));
    engine.run();
    engine.spawn("ping",
                 pinger(&kernel, a, e.q_ab, e.q_ba, e.ev_a, kRounds, &ok));
    engine.spawn("pong",
                 ponger(&kernel, p, e.q_ba, e.q_ab, e.ev_b, kRounds, &ok));
    const auto t0 = Clock::now();
    engine.run();
    per_round.push_back(elapsed_ns(t0) / 1e3 / kRounds);
    out.ok = out.ok && ok && engine.live_processes() == 0 &&
             engine.process_failures().empty();
  }
  out.value = median(per_round);
  return out;
}

double probe_us() {
  static std::unordered_map<std::uint64_t, std::uint64_t> table = [] {
    std::unordered_map<std::uint64_t, std::uint64_t> t;
    for (std::uint64_t i = 0; i < 65536; ++i) t[splitmix(i)] = i;
    return t;
  }();
  struct Event {
    std::uint64_t at;
    std::function<void()> fn;
    bool operator<(const Event& o) const { return at > o.at; }
  };
  const auto t0 = Clock::now();
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < kProbeOps; ++i) {
    const std::uint64_t key = splitmix(i & 65535);
    acc += table.find(key)->second;
    if (i % 8 == 0) {
      table.erase(key);
      table[key] = i & 65535;
    }
  }
  std::priority_queue<Event> heap;
  std::uint64_t x = 1;
  for (int i = 0; i < 4096; ++i) {
    x = splitmix(x);
    heap.push(Event{x % 100000,
                    [&acc, i] { acc += static_cast<std::uint64_t>(i); }});
  }
  for (int i = 0; i < kProbeOps; ++i) {
    Event e = heap.top();
    heap.pop();
    e.fn();
    x = splitmix(x);
    heap.push(Event{e.at + x % 1000,
                    [&acc, i] { acc ^= static_cast<std::uint64_t>(i); }});
  }
  const double us = elapsed_ns(t0) / 1e3;
  // Fixed inputs, so a fixed result: a different one means the probe did
  // not do the work it is timed for.
  static const std::uint64_t expect = acc;
  if (acc != expect) {
    std::fprintf(stderr, "twoclock: host probe result changed\n");
    std::exit(1);
  }
  return us;
}

}  // namespace twoclock

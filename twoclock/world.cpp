#include "world.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <utility>

#include "charlotte/kernel.hpp"
#include "chrysalis/kernel.hpp"
#include "lynx/lynx.hpp"
#include "net/butterfly_switch.hpp"
#include "net/csma_bus.hpp"
#include "net/token_ring.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"
#include "soda/kernel.hpp"
#include "spans.hpp"
#include "trace/phases.hpp"
#include "trace/trace.hpp"

namespace twoclock {

const char* name_of(Sub s) {
  switch (s) {
    case Sub::kCharlotte: return "charlotte";
    case Sub::kSoda: return "soda";
    case Sub::kChrysalis: return "chrysalis";
  }
  return "?";
}

// Why each workload exists, and how its rates and windows were chosen,
// is recorded in NOTES.md.  Windows are simulated time and never depend
// on the host: a run's simulated results are a function of the seed.
const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = [] {
    std::vector<Workload> all;
    Workload fan;
    fan.name = "fanin-small";
    fan.kind = Kind::kFanIn;
    fan.clients = 64;
    fan.servers = 16;
    fan.server_threads = 1;
    fan.open_loop = true;
    fan.rate = {416.0, 192.0, 3584.0};
    fan.mix = {SizePoint{64, 64, 1.0}};
    // A small exponential service demand: without it most Chrysalis
    // RPCs meet no queue, and its median would be one fixed latency
    // whatever the seed.
    fan.service_mean = sim::usec(100);
    fan.windows = {Windows{sim::sec(2), sim::sec(30), sim::sec(5)},
                   Windows{sim::sec(2), sim::sec(60), sim::sec(5)},
                   Windows{sim::msec(500), sim::sec(5), sim::sec(1)}};
    fan.universes = {2, 2, 1};
    all.push_back(fan);

    Workload pipe;
    pipe.name = "pipeline-bulk";
    pipe.kind = Kind::kPipeline;
    pipe.clients = 16;
    pipe.servers = 3;
    pipe.server_threads = 4;
    pipe.open_loop = false;
    // Every size stays under Chrysalis's 2048-byte link buffer
    // (ChrysalisBackendParams::max_message_bytes); see NOTES.md.
    pipe.mix = {SizePoint{1000, 1000, 2.0}, SizePoint{1800, 64, 1.0},
                SizePoint{64, 1800, 1.0}};
    pipe.windows = {Windows{sim::sec(5), sim::sec(100), sim::sec(20)},
                    Windows{sim::sec(5), sim::sec(150), sim::sec(30)},
                    Windows{sim::msec(500), sim::sec(6), sim::sec(2)}};
    all.push_back(pipe);

    Workload churn;
    churn.name = "move-churn";
    churn.kind = Kind::kMoveChurn;
    churn.clients = 16;
    churn.servers = 4;
    churn.server_threads = 4;
    churn.open_loop = false;
    // Both calls of an iteration carry 32..96 bytes (kChurnBytes), so
    // latencies, and not only the schedule, depend on the seed.
    churn.mix = {SizePoint{64, 64, 1.0}};
    churn.windows = {Windows{sim::sec(1), sim::sec(10), sim::sec(5)},
                     Windows{sim::sec(1), sim::sec(10), sim::sec(5)},
                     Windows{sim::msec(200), sim::sec(2), sim::sec(1)}};
    churn.universes = {1, 24, 1};
    all.push_back(churn);
    return all;
  }();
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// The substrate, its processes and their bootstrap links: everything
// but the traffic.  Node layout: servers (or pipeline stages) on nodes
// 0..M-1, clients on M..M+N-1; client i calls server i mod M (stage 0
// in the pipeline), and each pipeline stage holds one forward link to
// the next stage per worker thread.
class World {
 public:
  World(const Workload& w, Sub sub, std::uint64_t seed, Instruments inst)
      : sub_(sub) {
    const std::size_t total = w.servers + w.clients;
    if (inst.recorder) {
      // Large rings so the measure window is retained whole; the run
      // reports overwritten() so a truncated phase table shows.
      recorder_ = std::make_unique<trace::Recorder>(engine_, 1u << 18);
      recorder_->enable(false);
    }
    switch (sub) {
      case Sub::kCharlotte:
        wire_ = std::make_unique<net::TokenRing>(engine_);
        break;
      case Sub::kSoda: {
        // A quiet bus: loss belongs to the fault layer, not this bench.
        net::CsmaBusParams p;
        p.broadcast_drop_prob = 0.0;
        wire_ = std::make_unique<net::CsmaBus>(
            engine_, sim::Rng(seed ^ 0x50da50daULL), p);
        break;
      }
      case Sub::kChrysalis:
        break;
    }
    net::Medium* medium = wire_.get();
    if (wire_ != nullptr && inst.spans != nullptr) {
      decorated_ = std::make_unique<SpanMedium>(*wire_, *inst.spans);
      medium = decorated_.get();
    }
    switch (sub) {
      case Sub::kCharlotte:
        cluster_ =
            std::make_unique<charlotte::Cluster>(engine_, total, *medium);
        break;
      case Sub::kSoda:
        network_ = std::make_unique<soda::Network>(engine_, total, *medium);
        break;
      case Sub::kChrysalis: {
        net::ButterflyParams fabric;
        fabric.nodes = static_cast<std::uint32_t>(total);
        butterfly_ = std::make_unique<chrysalis::Kernel>(engine_, fabric);
        break;
      }
    }
    for (std::size_t s = 0; s < w.servers; ++s) {
      servers_.push_back(make_process("server" + std::to_string(s), s));
    }
    for (std::size_t i = 0; i < w.clients; ++i) {
      clients_.push_back(
          make_process("client" + std::to_string(i), w.servers + i));
    }
    for (auto& p : servers_) p->start();
    for (auto& p : clients_) p->start();
    inbound_.resize(w.servers);
    forward_.resize(w.servers);
    client_link_.resize(w.clients);
    engine_.spawn("wire", wire_up(this, &w));
    engine_.run();  // only bootstrap traffic exists yet
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  // Parked coroutine frames touch process and kernel state as they
  // unwind, so they are torn down while every member is still alive.
  ~World() { engine_.shutdown(); }

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] trace::Recorder* recorder() { return recorder_.get(); }
  [[nodiscard]] lynx::Process& server(std::size_t s) { return *servers_[s]; }
  [[nodiscard]] lynx::Process& client(std::size_t i) { return *clients_[i]; }
  [[nodiscard]] const std::vector<lynx::LinkHandle>& inbound(std::size_t s) {
    return inbound_[s];
  }
  [[nodiscard]] const std::vector<lynx::LinkHandle>& forward(std::size_t s) {
    return forward_[s];
  }
  [[nodiscard]] lynx::LinkHandle client_link(std::size_t i) {
    return client_link_[i];
  }

  // Counters sampled at the window edges.
  struct Counters {
    std::uint64_t events = 0, frames = 0, bytes = 0, protocol = 0;
    std::uint64_t enc_packets = 0, retries = 0;
    std::uint64_t hint_misses = 0, freeze_searches = 0, requests_issued = 0;
  };
  [[nodiscard]] Counters sample() {
    Counters c;
    c.events = engine_.events_fired();
    if (wire_ != nullptr) {
      c.frames = wire_->frames_sent();
      c.bytes = wire_->bytes_sent();
    } else {
      c.frames = butterfly_->enqueue_calls();
    }
    auto add = [&c](lynx::Process& p) {
      c.protocol += p.backend().protocol_messages();
      if (auto* cb = dynamic_cast<lynx::CharlotteBackend*>(&p.backend())) {
        c.enc_packets += cb->stats().enc_packets_sent;
        c.retries += cb->stats().retries_sent;
      } else if (auto* sb = dynamic_cast<lynx::SodaBackend*>(&p.backend())) {
        c.hint_misses += sb->stats().hint_misses;
        c.freeze_searches += sb->stats().freeze_searches;
        c.requests_issued += sb->stats().requests_issued;
      }
    };
    for (auto& p : servers_) add(*p);
    for (auto& p : clients_) add(*p);
    return c;
  }

  [[nodiscard]] std::uint64_t thread_failures() const {
    std::uint64_t n = engine_.process_failures().size();
    for (const auto& p : servers_) n += p->thread_failures().size();
    for (const auto& p : clients_) n += p->thread_failures().size();
    return n;
  }

  void shutdown() { engine_.shutdown(); }

 private:
  std::unique_ptr<lynx::Process> make_process(std::string name,
                                              std::size_t node) {
    const net::NodeId nid(static_cast<std::uint32_t>(node));
    switch (sub_) {
      case Sub::kCharlotte:
        return std::make_unique<lynx::Process>(
            engine_, std::move(name),
            lynx::make_charlotte_backend(*cluster_, nid),
            lynx::vax_runtime_costs());
      case Sub::kSoda:
        return std::make_unique<lynx::Process>(
            engine_, std::move(name),
            lynx::make_soda_backend(*network_, directory_, nid),
            lynx::pdp11_runtime_costs());
      case Sub::kChrysalis:
        return std::make_unique<lynx::Process>(
            engine_, std::move(name),
            lynx::make_chrysalis_backend(*butterfly_, nid),
            lynx::mc68000_runtime_costs());
    }
    return nullptr;
  }

  static sim::Task<> wire_up(World* world, const Workload* w) {
    for (std::size_t i = 0; i < w->clients; ++i) {
      const std::size_t target =
          w->kind == Kind::kPipeline ? 0 : i % w->servers;
      auto [srv_end, cli_end] =
          co_await lynx::connect_any(world->server(target), world->client(i));
      world->inbound_[target].push_back(srv_end);
      world->client_link_[i] = cli_end;
    }
    if (w->kind != Kind::kPipeline) co_return;
    for (std::size_t s = 0; s + 1 < w->servers; ++s) {
      for (std::size_t t = 0; t < w->server_threads; ++t) {
        auto [next_end, stage_end] =
            co_await lynx::connect_any(world->server(s + 1), world->server(s));
        world->inbound_[s + 1].push_back(next_end);
        world->forward_[s].push_back(stage_end);
      }
    }
  }

  Sub sub_;
  sim::Engine engine_;
  std::unique_ptr<trace::Recorder> recorder_;
  std::unique_ptr<net::Medium> wire_;  // TokenRing or CsmaBus
  std::unique_ptr<SpanMedium> decorated_;
  lynx::SodaDirectory directory_;
  std::unique_ptr<charlotte::Cluster> cluster_;
  std::unique_ptr<soda::Network> network_;
  std::unique_ptr<chrysalis::Kernel> butterfly_;
  // Declared after the kernels so processes are destroyed first.
  std::vector<std::unique_ptr<lynx::Process>> servers_;
  std::vector<std::unique_ptr<lynx::Process>> clients_;
  std::vector<std::vector<lynx::LinkHandle>> inbound_;
  std::vector<std::vector<lynx::LinkHandle>> forward_;
  std::vector<lynx::LinkHandle> client_link_;
};

enum class Outcome : std::uint8_t { kOk, kWrong, kError };

// One scheduled open-loop arrival; scheduled < 0 ends the sender.
struct Arrival {
  sim::Time scheduled = -1;
  std::uint32_t slot = 0;
  std::uint8_t fill = 0;
};

// Per-run traffic state shared by the generators and the servers.
struct Run {
  static constexpr std::uint32_t kOutside = ~0u;
  // Open loop: arrivals a client may queue before they are shed.
  static constexpr std::size_t kBacklogCap = 1024;

  const Workload* w = nullptr;
  World* world = nullptr;
  SpanLog* spans = nullptr;
  sim::Time meas_start = 0, meas_end = 0, hard_end = 0;
  SimResult res;
  std::uint64_t bad_requests = 0;
  std::int64_t in_flight = 0;
  std::vector<sim::Time> started_at;  // per in-window RPC
  std::vector<sim::Time> done_at;    // -1 while open
  std::vector<std::unique_ptr<sim::Mailbox<Arrival>>> boxes;
  World::Counters c0, c1;
  std::chrono::steady_clock::time_point wall0, wall1;

  [[nodiscard]] bool in_window(sim::Time t) const {
    return t >= meas_start && t < meas_end;
  }
  [[nodiscard]] sim::Time now() { return world->engine().now(); }

  std::uint32_t begin_rpc(sim::Time t) {
    ++in_flight;
    if (!in_window(t)) return kOutside;
    started_at.push_back(t);
    done_at.push_back(-1);
    return static_cast<std::uint32_t>(started_at.size() - 1);
  }
  void finish(std::uint32_t slot, Outcome o) {
    --in_flight;
    if (o == Outcome::kOk && in_window(now())) ++res.window_completions;
    if (slot == kOutside) return;
    switch (o) {
      case Outcome::kOk:
        ++res.completed;
        done_at[slot] = now();
        break;
      case Outcome::kWrong: ++res.wrong; break;
      case Outcome::kError: ++res.errors; break;
    }
  }
};

[[nodiscard]] bool filled(const lynx::Bytes& b, std::size_t n,
                          std::uint8_t fill) {
  return b.size() == n &&
         std::all_of(b.begin(), b.end(),
                     [fill](std::uint8_t x) { return x == fill; });
}

[[nodiscard]] lynx::Message rpc_request(const SizePoint& sz,
                                        std::uint8_t fill) {
  return lynx::make_message("rpc", {static_cast<std::int64_t>(sz.reply_bytes),
                                    static_cast<std::int64_t>(fill),
                                    lynx::Bytes(sz.request_bytes, fill)});
}

// A correct reply carries reply_bytes bytes of the request's fill,
// inverted, so a reply to some other request cannot pass.
[[nodiscard]] bool reply_ok(const lynx::Message& m, std::size_t reply_bytes,
                            std::uint8_t fill) {
  if (m.args.size() != 1) return false;
  const auto* b = std::get_if<lynx::Bytes>(&m.args[0]);
  return b != nullptr &&
         filled(*b, reply_bytes, static_cast<std::uint8_t>(~fill));
}

[[nodiscard]] lynx::Message answer(std::size_t reply_bytes, std::uint8_t fill) {
  return lynx::make_message(
      "", {lynx::Bytes(reply_bytes, static_cast<std::uint8_t>(~fill))});
}

// Message builders stay outside the coroutines: gcc 12 miscompiles
// braced initializer lists inside co_await expressions.
[[nodiscard]] lynx::Message echo(std::vector<lynx::Value> args) {
  return lynx::make_message("", std::move(args));
}

[[nodiscard]] lynx::Message move_request(std::int64_t iter,
                                         lynx::LinkHandle end,
                                         std::uint8_t fill, std::size_t bytes) {
  return lynx::make_message("move", {iter, end, lynx::Bytes(bytes, fill)});
}

[[nodiscard]] lynx::Message use_request(std::int64_t iter, std::uint8_t fill,
                                        std::size_t bytes) {
  return lynx::make_message(
      "use", {iter, static_cast<std::int64_t>(fill), lynx::Bytes(bytes, fill)});
}

// Argument i of a request that must carry exactly n arguments, if it
// has type T; nullptr otherwise.
template <typename T>
[[nodiscard]] const T* arg(const lynx::Message& m, std::size_t i,
                           std::size_t n) {
  return m.args.size() == n ? std::get_if<T>(&m.args[i]) : nullptr;
}

[[nodiscard]] std::uint32_t draw_size(const Workload& w, sim::Rng& rng) {
  if (w.mix.size() <= 1) return 0;
  double total = 0.0;
  for (const auto& m : w.mix) total += m.weight;
  double x = rng.next_double() * total;
  for (std::uint32_t i = 0; i < w.mix.size(); ++i) {
    x -= w.mix[i].weight;
    if (x < 0.0) return i;
  }
  return static_cast<std::uint32_t>(w.mix.size() - 1);
}

// Serves one request.  "rpc" is answered here or relayed to the next
// pipeline stage; "move" carries a fresh link end whose requests the
// server then accepts; "use" arrives on such an end, and on odd
// iterations the server destroys that link after replying.
sim::Task<> serve(lynx::ThreadCtx& ctx, Run* run, lynx::Incoming in,
                  lynx::LinkHandle forward, sim::Rng* rng) {
  const lynx::Message& m = in.msg;
  if (m.op == "rpc") {
    const auto* rb = arg<std::int64_t>(m, 0, 3);
    const auto* fill = arg<std::int64_t>(m, 1, 3);
    const auto* body = arg<lynx::Bytes>(m, 2, 3);
    if (rb == nullptr || fill == nullptr || body == nullptr || body->empty() ||
        !filled(*body, body->size(), static_cast<std::uint8_t>(*fill))) {
      ++run->bad_requests;
    }
    if (forward.valid()) {
      lynx::Message down = co_await ctx.call(forward, in.msg);
      co_await ctx.reply(in, std::move(down));
    } else {
      if (run->w->service_mean > 0) {
        co_await ctx.delay(static_cast<sim::Duration>(rng->next_exponential(
            static_cast<double>(run->w->service_mean))));
      }
      const auto bytes = static_cast<std::size_t>(rb != nullptr ? *rb : 0);
      const auto f = static_cast<std::uint8_t>(fill != nullptr ? *fill : 0);
      co_await ctx.reply(in, answer(bytes, f));
    }
  } else if (m.op == "move") {
    const auto* end = arg<lynx::LinkHandle>(m, 1, 3);
    const auto* body = arg<lynx::Bytes>(m, 2, 3);
    if (end == nullptr || body == nullptr || body->empty() ||
        !filled(*body, body->size(), body->front())) {
      ++run->bad_requests;
      co_await ctx.reply(in, echo(std::vector<lynx::Value>()));
      co_return;
    }
    ctx.enable_requests(*end);
    co_await ctx.reply(in, echo(std::vector<lynx::Value>(m.args.begin(),
                                                         m.args.begin() + 1)));
  } else if (m.op == "use") {
    const auto* iter = arg<std::int64_t>(m, 0, 3);
    const auto* fill = arg<std::int64_t>(m, 1, 3);
    const auto* body = arg<lynx::Bytes>(m, 2, 3);
    if (iter == nullptr || fill == nullptr || body == nullptr ||
        !filled(*body, body->size(), static_cast<std::uint8_t>(*fill))) {
      ++run->bad_requests;
    }
    const bool hang_up = iter != nullptr && (*iter % 2) == 1;
    co_await ctx.reply(in, answer(body ? body->size() : 0,
                                  static_cast<std::uint8_t>(fill ? *fill : 0)));
    if (hang_up) co_await ctx.destroy(in.link);
  } else {
    ++run->bad_requests;
  }
}

sim::Task<> server_worker(lynx::ThreadCtx& ctx, Run* run,
                          std::vector<lynx::LinkHandle> inbound,
                          lynx::LinkHandle forward, sim::Rng rng) {
  for (lynx::LinkHandle l : inbound) ctx.enable_requests(l);
  for (;;) {
    lynx::Incoming in;
    try {
      in = co_await ctx.receive();
    } catch (const lynx::LynxError&) {
      co_return;  // every open queue is gone: the run is over
    }
    try {
      co_await serve(ctx, run, std::move(in), forward, &rng);
    } catch (const lynx::LynxError&) {
      ++run->res.server_errors;
    }
  }
}

// One RPC over `link`, accounted in `slot`; returns its outcome.
sim::Task<Outcome> timed_call(lynx::ThreadCtx& ctx, Run* run,
                              lynx::LinkHandle link, lynx::Message req,
                              std::size_t reply_bytes, std::uint8_t fill,
                              std::uint32_t slot) {
  Outcome o = Outcome::kError;
  try {
    lynx::Message r = co_await ctx.call(link, std::move(req));
    o = reply_ok(r, reply_bytes, fill) ? Outcome::kOk : Outcome::kWrong;
  } catch (const lynx::LynxError&) {
    o = Outcome::kError;
  }
  run->finish(slot, o);
  co_return o;
}

// Payload range of both move-churn calls, drawn per byte.
constexpr std::pair<std::size_t, std::size_t> kChurnBytes{32, 96};

// One move-churn iteration: make a link, enclose one end in a call to
// the server, call once over the kept end, and hang up — the client on
// even iterations, the server on odd ones.  Returns false once the
// bootstrap link has failed.
sim::Task<bool> churn_once(lynx::ThreadCtx& ctx, Run* run,
                           lynx::LinkHandle boot, std::int64_t iter,
                           sim::Rng* rng) {
  lynx::LocalLinkPair pair;
  try {
    pair = co_await ctx.new_link();
  } catch (const lynx::LynxError&) {
    co_return false;
  }
  const std::size_t bytes =
      kChurnBytes.first +
      rng->next_below(kChurnBytes.second - kChurnBytes.first + 1);
  const auto fill = static_cast<std::uint8_t>(rng->next_below(256));
  std::uint32_t slot = run->begin_rpc(run->now());
  Outcome o = Outcome::kError;
  try {
    lynx::Message r =
        co_await ctx.call(boot, move_request(iter, pair.end2, fill, bytes));
    const auto* echo =
        r.args.size() == 1 ? std::get_if<std::int64_t>(&r.args[0]) : nullptr;
    o = echo != nullptr && *echo == iter ? Outcome::kOk : Outcome::kWrong;
  } catch (const lynx::LynxError&) {
  }
  run->finish(slot, o);
  if (o == Outcome::kError) co_return false;

  slot = run->begin_rpc(run->now());
  (void)co_await timed_call(ctx, run, pair.end1, use_request(iter, fill, bytes),
                            bytes, fill, slot);
  if (iter % 2 == 0) {
    try {
      co_await ctx.destroy(pair.end1);
    } catch (const lynx::LynxError&) {
    }
  }
  co_return true;
}

// Closed loop: each client makes its next call when the last returns,
// until the measure window ends; latency counts from the call.
sim::Task<> closed_client(lynx::ThreadCtx& ctx, Run* run,
                          lynx::LinkHandle link, sim::Rng rng) {
  for (std::int64_t iter = 0; run->now() < run->meas_end; ++iter) {
    if (run->w->kind == Kind::kMoveChurn) {
      // An exponential think time (mean 2 ms) makes the schedule depend
      // on the seed; without it the move-churn inputs would not.
      co_await ctx.delay(
          static_cast<sim::Duration>(rng.next_exponential(2'000'000.0)));
      if (!co_await churn_once(ctx, run, link, iter, &rng)) co_return;
      continue;
    }
    const SizePoint& sz = run->w->mix[draw_size(*run->w, rng)];
    const auto fill = static_cast<std::uint8_t>(rng.next_below(256));
    const std::uint32_t slot = run->begin_rpc(run->now());
    const Outcome o = co_await timed_call(ctx, run, link, rpc_request(sz, fill),
                                          sz.reply_bytes, fill, slot);
    if (o == Outcome::kError) co_return;
  }
}

// Open loop: Poisson arrivals at rate/clients per client until the
// measure window ends, spawned on the engine so slow replies never hold
// it back.  An arrival that finds kBacklogCap queued is shed.
sim::Task<> open_dispatcher(sim::Engine* eng, Run* run, std::size_t client,
                            double per_client_rate, sim::Rng rng) {
  const double mean_gap_ns = 1e9 / per_client_rate;
  sim::Time next = eng->now();
  for (;;) {
    next += std::max<sim::Time>(
        1, static_cast<sim::Time>(rng.next_exponential(mean_gap_ns)));
    if (next >= run->meas_end) break;
    co_await eng->sleep(next - eng->now());
    const auto fill = static_cast<std::uint8_t>(rng.next_below(256));
    if (run->boxes[client]->size() >= Run::kBacklogCap) {
      if (run->in_window(next)) ++run->res.shed;
      continue;
    }
    const std::uint32_t slot = run->begin_rpc(next);
    run->boxes[client]->put(Arrival{next, slot, fill});
  }
  run->boxes[client]->put(Arrival{});
}

// Open-loop sender: one per client, draining its arrivals in order.
// Latency runs from the scheduled arrival, so queueing counts.
sim::Task<> open_sender(lynx::ThreadCtx& ctx, Run* run, std::size_t client,
                        lynx::LinkHandle link) {
  const SizePoint sz = run->w->mix.front();
  for (;;) {
    const Arrival a = co_await run->boxes[client]->get();
    if (a.scheduled < 0) co_return;
    const Outcome o = co_await timed_call(ctx, run, link,
                                          rpc_request(sz, a.fill),
                                          sz.reply_bytes, a.fill, a.slot);
    if (o == Outcome::kError) co_return;
  }
}

void start_traffic(Run& run, World& world, std::uint64_t seed,
                   double per_client_rate) {
  const Workload& w = *run.w;
  sim::Rng server_master(seed ^ 0x5e7f1ce5ULL);
  for (std::size_t s = 0; s < w.servers; ++s) {
    const auto& fwd = world.forward(s);
    for (std::size_t t = 0; t < w.server_threads; ++t) {
      const lynx::LinkHandle f = t < fwd.size() ? fwd[t] : lynx::LinkHandle();
      std::vector<lynx::LinkHandle> inbound = world.inbound(s);
      Run* r = &run;
      const sim::Rng rng = server_master.fork();
      world.server(s).spawn_thread(
          "worker" + std::to_string(t),
          [r, inbound, f, rng](lynx::ThreadCtx& ctx) {
            return server_worker(ctx, r, inbound, f, rng);
          });
    }
  }
  // Client streams fork from the seed in index order: the traffic is a
  // pure function of (workload, seed).
  sim::Rng master(seed);
  for (std::size_t i = 0; i < w.clients; ++i) {
    const sim::Rng rng = master.fork();
    const lynx::LinkHandle link = world.client_link(i);
    Run* r = &run;
    if (w.open_loop) {
      run.boxes.push_back(
          std::make_unique<sim::Mailbox<Arrival>>(world.engine()));
      world.client(i).spawn_thread("send", [r, i, link](lynx::ThreadCtx& ctx) {
        return open_sender(ctx, r, i, link);
      });
      world.engine().spawn("dispatch", open_dispatcher(&world.engine(), r, i,
                                                       per_client_rate, rng));
    } else {
      world.client(i).spawn_thread("gen", [r, link, rng](lynx::ThreadCtx& ctx) {
        return closed_client(ctx, r, link, rng);
      });
    }
  }
}

}  // namespace

std::uint64_t SimResult::digest() const {
  std::uint64_t h = kFnvBasis;
  for (std::uint64_t v :
       {attempted, completed, wrong, errors, unfinished, shed, server_errors,
        thread_failures, std::uint64_t{backlog_grew}, window_completions,
        events, frames, bytes, protocol_msgs, enc_packets, retries,
        hint_misses, freeze_searches, requests_issued, latency_digest,
        static_cast<std::uint64_t>(end_time)}) {
    fnv(h, v);
  }
  for (std::int64_t b : backlog) fnv(h, static_cast<std::uint64_t>(b));
  return h;
}

namespace {

// One universe: set-up, traffic, and its simulated results, with every
// attempted RPC's latency appended to `lat_ms` (failed and unfinished
// ones censored at the cut-off, so a fix can only lower percentiles).
RunOutput run_universe(const Workload& w, Sub sub, std::uint64_t seed,
                       Instruments inst, std::vector<double>& lat_ms) {
  RunOutput out;
  const auto setup0 = std::chrono::steady_clock::now();
  World world(w, sub, seed, inst);
  out.setup_s = seconds_since(setup0);

  const Windows& win = w.windows[static_cast<std::size_t>(sub)];
  Run run;
  run.w = &w;
  run.world = &world;
  run.spans = inst.spans;
  sim::Engine& eng = world.engine();
  const sim::Time start = eng.now();
  run.meas_start = start + win.warmup;
  run.meas_end = run.meas_start + win.measure;
  run.hard_end = run.meas_end + win.drain;

  eng.schedule_at(run.meas_start, [&run, &world] {
    run.c0 = world.sample();
    if (run.spans != nullptr) run.spans->set_active(true);
    if (world.recorder() != nullptr) world.recorder()->enable(true);
    run.wall0 = std::chrono::steady_clock::now();
  });
  for (std::size_t k = 0; k < run.res.backlog.size(); ++k) {
    const auto points = static_cast<sim::Duration>(run.res.backlog.size());
    const sim::Time at = run.meas_start + win.measure *
                                              static_cast<sim::Duration>(k) /
                                              (points - 1);
    eng.schedule_at(at, [&run, k] { run.res.backlog[k] = run.in_flight; });
  }
  eng.schedule_at(run.meas_end, [&run, &world] {
    run.wall1 = std::chrono::steady_clock::now();
    if (world.recorder() != nullptr) world.recorder()->enable(false);
    if (run.spans != nullptr) run.spans->set_active(false);
    run.c1 = world.sample();
  });

  start_traffic(run, world, seed,
                w.rate[static_cast<std::size_t>(sub)] /
                    static_cast<double>(w.clients));
  (void)eng.run_until(run.hard_end);

  SimResult& r = run.res;
  r.attempted = run.started_at.size();
  r.unfinished = r.attempted - r.completed - r.wrong - r.errors;
  r.thread_failures = world.thread_failures();
  r.end_time = eng.now();
  r.measure_s = static_cast<double>(win.measure) / 1e9;
  r.wrong += run.bad_requests;
  r.events = run.c1.events - run.c0.events;
  r.frames = run.c1.frames - run.c0.frames;
  r.bytes = run.c1.bytes - run.c0.bytes;
  r.protocol_msgs = run.c1.protocol - run.c0.protocol;
  r.enc_packets = run.c1.enc_packets - run.c0.enc_packets;
  r.retries = run.c1.retries - run.c0.retries;
  r.hint_misses = run.c1.hint_misses - run.c0.hint_misses;
  r.freeze_searches = run.c1.freeze_searches - run.c0.freeze_searches;
  r.requests_issued = run.c1.requests_issued - run.c0.requests_issued;
  if (w.open_loop) {
    // Sustainable means the in-flight count is flat across the window:
    // the last three samples may not exceed the first three by more
    // than half again plus one request per client.
    const auto& b = r.backlog;
    const double head = static_cast<double>(b[0] + b[1] + b[2]) / 3.0;
    const double tail = static_cast<double>(b[6] + b[7] + b[8]) / 3.0;
    r.backlog_grew = tail > 1.5 * head + static_cast<double>(w.clients);
  }

  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i < r.attempted; ++i) {
    const sim::Time end = run.done_at[i] >= 0 ? run.done_at[i] : run.hard_end;
    const sim::Duration d = end - run.started_at[i];
    fnv(h, static_cast<std::uint64_t>(d));
    lat_ms.push_back(sim::to_msec(d));
  }
  r.latency_digest = h;

  out.window_s = std::chrono::duration<double>(run.wall1 - run.wall0).count();
  if (trace::Recorder* rec = world.recorder()) {
    const trace::PhaseTable pt(*rec);
    const char* labels[] = {"call.gather", "call.send", "call.wait",
                            "call.scatter"};
    for (std::size_t i = 0; i < out.phases.total_ms.size(); ++i) {
      out.phases.total_ms[i] = pt.total_ms(labels[i]);
      out.phases.count[i] = pt.count(labels[i]);
    }
    out.trace_overwritten = rec->overwritten();
  }
  world.shutdown();
  out.sim = r;
  return out;
}

}  // namespace

RunOutput run_once(const Workload& w, Sub sub, std::uint64_t seed,
                   Instruments inst) {
  const int universes = w.universes[static_cast<std::size_t>(sub)];
  RunOutput out;
  SimResult& r = out.sim;
  std::vector<double> lat_ms;
  std::uint64_t h = kFnvBasis;
  for (int k = 0; k < universes; ++k) {
    // Universe k's seed: the run's own for k = 0, then splitmix steps.
    const std::uint64_t useed =
        seed + static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
    const RunOutput u = run_universe(w, sub, useed, inst, lat_ms);
    const SimResult& s = u.sim;
    out.setup_s += u.setup_s;
    out.window_s += u.window_s;
    out.trace_overwritten += u.trace_overwritten;
    for (std::size_t i = 0; i < out.phases.total_ms.size(); ++i) {
      out.phases.total_ms[i] += u.phases.total_ms[i];
      out.phases.count[i] += u.phases.count[i];
    }
    r.attempted += s.attempted;
    r.completed += s.completed;
    r.wrong += s.wrong;
    r.errors += s.errors;
    r.unfinished += s.unfinished;
    r.shed += s.shed;
    r.server_errors += s.server_errors;
    r.thread_failures += s.thread_failures;
    r.backlog_grew = r.backlog_grew || s.backlog_grew;
    for (std::size_t i = 0; i < r.backlog.size(); ++i) {
      r.backlog[i] += s.backlog[i];
    }
    r.window_completions += s.window_completions;
    r.events += s.events;
    r.frames += s.frames;
    r.bytes += s.bytes;
    r.protocol_msgs += s.protocol_msgs;
    r.enc_packets += s.enc_packets;
    r.retries += s.retries;
    r.hint_misses += s.hint_misses;
    r.freeze_searches += s.freeze_searches;
    r.requests_issued += s.requests_issued;
    r.end_time = std::max(r.end_time, s.end_time);
    r.measure_s += s.measure_s;
    fnv(h, s.latency_digest);
  }
  r.latency_digest = h;
  // Nearest-rank percentiles over every universe's RPCs.
  std::sort(lat_ms.begin(), lat_ms.end());
  auto rank = [&lat_ms](double q) {
    if (lat_ms.empty()) return 0.0;
    const auto n = static_cast<double>(lat_ms.size());
    const auto idx = static_cast<std::size_t>(std::ceil(q * n)) - 1;
    return lat_ms[std::min(idx, lat_ms.size() - 1)];
  };
  r.p50_ms = rank(0.50);
  r.p99_ms = rank(0.99);
  return out;
}

}  // namespace twoclock

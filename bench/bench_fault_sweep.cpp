// E11: RPC latency under an impaired medium — latency vs. frame drop
// rate for all three substrates.
//
// The paper's failure-semantics contrast (§2, §3.1) has a performance
// shadow: Charlotte buys its absolute failure notices with per-Msg
// acknowledgement state, so under loss it degrades by retransmit
// timeouts; SODA's hint-based transport retries per fragment on a much
// shorter clock; Chrysalis lives inside one Butterfly and has no wire
// to impair at all.  Each world boots over a clean medium, then the
// fault layer turns on background loss for the measured region only.
// Every (backend, drop-rate) point also emits a JSON line for plotting.
#include "fault/faulty_medium.hpp"
#include "harness.hpp"
#include "net/token_ring.hpp"

namespace {

using namespace bench;

struct FaultyCharlotteWorld {
  sim::Engine engine;
  net::TokenRing ring{engine};
  fault::FaultyMedium medium;
  charlotte::Cluster cluster;
  lynx::Process server;
  lynx::Process client;
  lynx::LinkHandle server_end;
  lynx::LinkHandle client_end;

  explicit FaultyCharlotteWorld(std::uint64_t seed)
      : medium(engine, ring, seed),
        cluster(engine, 2, medium, robust_costs()),
        server(engine, "server",
               lynx::make_charlotte_backend(cluster, net::NodeId(0)),
               lynx::vax_runtime_costs()),
        client(engine, "client",
               lynx::make_charlotte_backend(cluster, net::NodeId(1)),
               lynx::vax_runtime_costs()) {
    server.start();
    client.start();
    engine.spawn("wire", wire(this));
    engine.run();
  }
  static charlotte::Costs robust_costs() {
    charlotte::Costs c;
    c.send_retransmit_timeout = sim::msec(150);
    c.max_send_attempts = 20;  // loss, not failure: keep trying
    return c;
  }
  static sim::Task<> wire(FaultyCharlotteWorld* w) {
    auto [se, ce] =
        co_await lynx::CharlotteBackend::connect(w->server, w->client);
    w->server_end = se;
    w->client_end = ce;
  }
};

struct FaultySodaWorld {
  sim::Engine engine;
  net::CsmaBus bus;
  fault::FaultyMedium medium;
  lynx::SodaDirectory directory;
  soda::Network network;
  lynx::Process server;
  lynx::Process client;
  lynx::LinkHandle server_end;
  lynx::LinkHandle client_end;

  explicit FaultySodaWorld(std::uint64_t seed)
      : bus(engine, sim::Rng(2026), quiet_bus()),
        medium(engine, bus, seed),
        network(engine, 2, medium, robust_costs()),
        server(engine, "server",
               lynx::make_soda_backend(network, directory, net::NodeId(0)),
               lynx::pdp11_runtime_costs()),
        client(engine, "client",
               lynx::make_soda_backend(network, directory, net::NodeId(1)),
               lynx::pdp11_runtime_costs()) {
    server.start();
    client.start();
    engine.spawn("wire", wire(this));
    engine.run();
  }
  static net::CsmaBusParams quiet_bus() {
    net::CsmaBusParams p;
    p.broadcast_drop_prob = 0.0;  // the fault layer owns all loss here
    return p;
  }
  static soda::Costs robust_costs() {
    soda::Costs c;
    c.ack_timeout = sim::msec(8);
    c.max_transport_attempts = 20;
    return c;
  }
  static sim::Task<> wire(FaultySodaWorld* w) {
    auto [se, ce] = co_await lynx::SodaBackend::connect(w->server, w->client);
    w->server_end = se;
    w->client_end = ce;
  }
};

constexpr std::size_t kPayload = 16;
constexpr int kReps = 8;

template <typename World>
double impaired_rpc_ms(std::uint64_t seed, double drop) {
  World w(seed);  // boots over a clean wire
  w.medium.set_background({.drop_prob = drop});
  return lynx_rpc_ms(w, kPayload, kReps);
}

void report() {
  const std::vector<double> rates{0.0, 0.05, 0.1, 0.2, 0.3};

  // Chrysalis: no Medium anywhere in the stack — one measurement serves
  // every rate, and the flat line is itself the result.
  ChrysalisWorld chw;
  const double chrysalis_ms = lynx_rpc_ms(chw, kPayload, kReps);

  sweep::ThreadPool pool;
  auto charlotte = sweep::map<double, double>(
      rates,
      [](const double& r) {
        return impaired_rpc_ms<FaultyCharlotteWorld>(401, r);
      },
      pool);
  auto soda = sweep::map<double, double>(
      rates,
      [](const double& r) { return impaired_rpc_ms<FaultySodaWorld>(402, r); },
      pool);

  table_header("E11: small-RPC latency vs frame drop rate (fault layer)");
  std::printf("%-10s %14s %14s %14s\n", "drop", "charlotte ms", "soda ms",
              "chrysalis ms");
  for (std::size_t i = 0; i < rates.size(); ++i) {
    std::printf("%-10.2f %14.2f %14.2f %14.2f\n", rates[i], charlotte[i],
                soda[i], chrysalis_ms);
  }
  for (std::size_t i = 0; i < rates.size(); ++i) {
    JsonLine()
        .field("bench", "fault_sweep")
        .field("backend", "charlotte")
        .field("drop_rate", rates[i])
        .field("ms_per_op", charlotte[i])
        .emit();
    JsonLine()
        .field("bench", "fault_sweep")
        .field("backend", "soda")
        .field("drop_rate", rates[i])
        .field("ms_per_op", soda[i])
        .emit();
    JsonLine()
        .field("bench", "fault_sweep")
        .field("backend", "chrysalis")
        .field("drop_rate", rates[i])
        .field("ms_per_op", chrysalis_ms)
        .emit();
  }
  print_note("shape checks: both wire substrates rise with loss; Charlotte");
  print_note("degrades in ~150 ms retransmit-timeout steps while SODA's");
  print_note("8 ms per-fragment ack clock recovers far more gently;");
  print_note("Chrysalis is flat because no Medium exists to impair.");
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "fault_sweep");
  report();
  return 0;
}

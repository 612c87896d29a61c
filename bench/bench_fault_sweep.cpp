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

namespace {

using namespace bench;

// Loss, not failure: both wire substrates keep retransmitting.  The SODA
// bus keeps the fixed 2026 seed; `seed` drives the fault layer.
load::WorldParams impaired_params(std::uint64_t seed) {
  load::WorldParams p;
  p.charlotte.send_retransmit_timeout = sim::msec(150);
  p.charlotte.max_send_attempts = 20;
  p.soda.ack_timeout = sim::msec(8);
  p.soda.max_transport_attempts = 20;
  p.bus_seed = 2026;
  p.faults = fault::Plan{};
  p.fault_seed = seed;
  return p;
}

constexpr std::size_t kPayload = 16;
constexpr int kReps = 8;

double impaired_rpc_ms(Substrate s, std::uint64_t seed, double drop) {
  Pair w(s, impaired_params(seed));  // boots over a clean wire
  w.world.faulty_medium()->set_background({.drop_prob = drop});
  return lynx_rpc_ms(w, kPayload, kReps);
}

void report() {
  const std::vector<double> rates{0.0, 0.05, 0.1, 0.2, 0.3};

  // Chrysalis: no Medium anywhere in the stack — one measurement serves
  // every rate, and the flat line is itself the result.
  Pair chw(Substrate::kChrysalis);
  const double chrysalis_ms = lynx_rpc_ms(chw, kPayload, kReps);

  sweep::ThreadPool pool;
  auto charlotte = sweep::map<double, double>(
      rates,
      [](const double& r) {
        return impaired_rpc_ms(Substrate::kCharlotte, 401, r);
      },
      pool);
  auto soda = sweep::map<double, double>(
      rates,
      [](const double& r) { return impaired_rpc_ms(Substrate::kSoda, 402, r); },
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

// E7 (paper §5.3): Chrysalis remote-operation latency.
//
//   "a simple remote operation requires about 2.4 ms with no data
//    transfer and about 4.6 ms with 1000 bytes of parameters in both
//    directions.  Code tuning and protocol optimizations now under
//    development are likely to improve both figures by 30 to 40%."
//
// Also checks the >10x gap to Charlotte that the paper highlights
// ("Message transmission times are also faster on the Butterfly, by
// more than an order of magnitude").
#include "harness.hpp"

namespace {

using namespace bench;

// "code tuning and protocol optimizations" — the ablation scales the
// microcode-adjacent op costs and the run-time package overhead by
// 0.65 (a 35% improvement, the middle of the paper's 30-40% band).
// load::World models neither cost, so this world is built by hand.
struct TunedChrysalisWorld {
  static constexpr double kScale = 0.65;
  static sim::Duration tuned(sim::Duration d) {
    return static_cast<sim::Duration>(static_cast<double>(d) * kScale);
  }
  static chrysalis::Costs kernel_costs() {
    chrysalis::Costs c;
    c.primitive_call = tuned(c.primitive_call);
    c.event_post = tuned(c.event_post);
    c.event_wait = tuned(c.event_wait);
    c.dq_enqueue = tuned(c.dq_enqueue);
    c.dq_dequeue = tuned(c.dq_dequeue);
    return c;
  }
  static lynx::RuntimeCosts runtime_costs() {
    lynx::RuntimeCosts rc = lynx::mc68000_runtime_costs();
    rc.per_operation = tuned(rc.per_operation);
    return rc;
  }

  TunedChrysalisWorld() {
    boot(engine, server, client, &server_end, &client_end);
  }

  sim::Engine engine;
  chrysalis::Kernel kernel{engine, net::ButterflyParams{}, kernel_costs()};
  lynx::Process server{engine, "server",
                       lynx::make_chrysalis_backend(kernel, net::NodeId(0)),
                       runtime_costs()};
  lynx::Process client{engine, "client",
                       lynx::make_chrysalis_backend(kernel, net::NodeId(1)),
                       runtime_costs()};
  lynx::LinkHandle server_end;
  lynx::LinkHandle client_end;
};

double chrysalis_ms(std::size_t bytes) {
  Pair w(Substrate::kChrysalis);
  return lynx_rpc_ms(w, bytes);
}

double tuned_chrysalis_ms(std::size_t bytes) {
  TunedChrysalisWorld w;
  return lynx_rpc_ms(w, bytes);
}

void report() {
  const double null_ms = chrysalis_ms(0);
  const double kb_ms = chrysalis_ms(1000);
  const double tuned_null = tuned_chrysalis_ms(0);
  const double tuned_kb = tuned_chrysalis_ms(1000);

  Pair cw(Substrate::kCharlotte);
  const double charlotte_null = lynx_rpc_ms(cw, 0);

  table_header("E7: Chrysalis simple remote operation (paper §5.3)");
  print_rows({
      {"LYNX remote op, no data", 2.4, null_ms, "ms"},
      {"LYNX remote op, 1000 B both ways", 4.6, kb_ms, "ms"},
      {"tuned (-35%), no data", 2.4 * 0.65, tuned_null, "ms"},
      {"tuned (-35%), 1000 B both ways", 4.6 * 0.65, tuned_kb, "ms"},
      {"Charlotte/Chrysalis null-op ratio (>10x)", 57.0 / 2.4,
       charlotte_null / null_ms, "x"},
  });
  print_note("shape checks: ~2.4/4.6 ms band; order-of-magnitude faster");
  print_note("than Charlotte; tuning knob moves both figures 30-40%.");

  Pair tw(Substrate::kChrysalis);
  traced_phase_report(tw, "E7 Chrysalis RPC (1000 B both ways)", 1000);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "chrysalis_rpc");
  report();
  return 0;
}

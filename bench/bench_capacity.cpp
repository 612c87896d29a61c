// E12: capacity — throughput–latency curves and saturation search.
//
// The paper ranks the kernels by single-RPC latency; this bench asks
// the follow-up question a server workload cares about: how much
// offered load does each kernel *sustain*?  An open-loop Poisson
// generator (coordinated-omission-correct; src/load/) sweeps a shared
// offered-rate grid on every substrate, producing one throughput and
// one latency-tail series per kernel, and load::find_capacity bisects
// each kernel's knee.  A payload sweep under overload then reruns E5's
// SODA-vs-Charlotte break-even in throughput terms.
//
// Flags (bench::init): --json-out, --trace-out, --seed, --smoke for the
// CI-sized version (short windows, 3 rates), and one --baseline=PATH per
// gated kernel (bench/baselines/*_capacity.json, routed by the file's
// "backend" field): exits 1 when a kernel's measured peak falls more than
// 10% below its baseline, so CI catches an ack-protocol slowdown — on any
// substrate — in the change that causes it.
#include <cmath>
#include <cstdio>

#include "charlotte/types.hpp"
#include "harness.hpp"
#include "load/load.hpp"
#include "soda/types.hpp"

namespace {

using namespace bench;

// p99 bound for the knee report: late enough that every kernel's
// uncontended tail (Charlotte's ~57 ms included) sits far below it.
constexpr double kKneeBoundMs = 250.0;

load::Scenario base_scenario(bool smoke) {
  load::Scenario sc;
  sc.name = "fan-in-4x1";
  sc.clients = 4;
  sc.servers = 1;
  sc.arrival = load::Arrival::kOpenPoisson;
  sc.mix = {{64, 64, 1.0}};
  sc.seed = bench::seed();
  if (smoke) {
    sc.warmup = sim::msec(250);
    sc.measure = sim::sec(1);
    sc.drain = sim::msec(500);
  } else {
    sc.warmup = sim::sec(1);
    sc.measure = sim::sec(4);
    sc.drain = sim::sec(2);
  }
  return sc;
}

void emit_point(const char* kind, const load::Report& r, double rate) {
  json()
      .field("kind", kind)
      .field("backend", r.backend)
      .field("scenario", r.scenario)
      .field("offered_rate", rate)
      .field("throughput", r.throughput)
      .field("p50_ms", r.p50_ms)
      .field("p99_ms", r.p99_ms)
      .field("samples", r.samples)
      .field("dropped", r.dropped)
      .field("backlog_end", r.backlog_end)
      .field("wire_ops", r.wire_ops)
      .field("frames_per_op", r.frames_per_op)
      .emit();
}

// ---- throughput–latency curves --------------------------------------------

void curves_report(bool smoke, sweep::ThreadPool& pool) {
  const std::vector<double> rates =
      smoke ? std::vector<double>{8, 32, 128}
            : std::vector<double>{4, 8, 16, 32, 64, 128, 256, 512};
  table_header("E12: throughput-latency curves (open-loop Poisson, 64 B)");
  std::printf("%-10s %-10s %12s %12s %12s %10s\n", "backend", "rate",
              "delivered/s", "p50 ms", "p99 ms", "backlog");

  sim::Series bound("p99-bound");
  for (double r : rates) bound.add(r, kKneeBoundMs);

  for (load::Substrate sub : load::all_substrates()) {
    const auto reports = sweep::map<double, load::Report>(
        rates,
        [sub, smoke](const double& rate) {
          load::Scenario sc = base_scenario(smoke);
          sc.offered_rate = rate;
          return load::run_scenario(sub, sc);
        },
        pool);
    sim::Series p99(std::string(to_string(sub)) + "-p99");
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const auto& r = reports[i];
      std::printf("%-10s %-10.0f %12.1f %12.2f %12.2f %10ld\n",
                  r.backend.c_str(), rates[i], r.throughput, r.p50_ms,
                  r.p99_ms, static_cast<long>(r.backlog_end));
      emit_point("curve", r, rates[i]);
      p99.add(rates[i], r.p99_ms);
    }
    // Series::crossover_x against the flat bound: the offered rate at
    // which this kernel's tail blows through 250 ms.
    const double knee = p99.crossover_x(bound);
    if (std::isnan(knee)) {
      std::printf("%-10s knee: p99 stays under %.0f ms on this grid\n",
                  to_string(sub), kKneeBoundMs);
    } else {
      std::printf("%-10s knee: p99 crosses %.0f ms near %.1f req/s\n",
                  to_string(sub), kKneeBoundMs, knee);
      json()
          .field("kind", "knee")
          .field("backend", to_string(sub))
          .field("p99_bound_ms", kKneeBoundMs)
          .field("knee_rate", knee)
          .emit();
    }
  }
}

// ---- saturation search -----------------------------------------------------

// The transport settings each substrate ran with, recorded alongside
// every peak so the JSON lines say what was measured.  Values mirror
// what load::Fleet configures: the default kernel cost structs.
void emit_capacity_knobs(load::Substrate sub) {
  auto j = json();
  j.field("kind", "capacity_knobs").field("backend", to_string(sub));
  switch (sub) {
    case load::Substrate::kCharlotte: {
      const charlotte::Costs c;
      j.field("send_retransmit_timeout_ms",
              sim::to_msec(c.send_retransmit_timeout));
      break;
    }
    case load::Substrate::kSoda: {
      const soda::Costs c;
      j.field("ack_timeout_ms", sim::to_msec(c.ack_timeout));
      break;
    }
    case load::Substrate::kChrysalis:
      break;  // no transport knobs: shared memory does not retransmit
  }
  j.emit();
}

// Measured peak delivered/s per substrate, for the baseline gates.
struct CapacityPeaks {
  double throughput[3] = {0, 0, 0};
  [[nodiscard]] double of(load::Substrate sub) const {
    return throughput[static_cast<int>(sub)];
  }
};

CapacityPeaks capacity_report(bool smoke, sweep::ThreadPool& pool) {
  table_header("E12: peak sustainable throughput (load::find_capacity)");
  std::printf("%-10s %12s %12s %14s\n", "backend", "peak rate", "delivered/s",
              "p99 bound ms");
  double peaks[3] = {0, 0, 0};
  CapacityPeaks out;
  for (load::Substrate sub : load::all_substrates()) {
    load::CapacityParams p;
    p.rate_lo = smoke ? 8.0 : 4.0;
    p.refine_iters = smoke ? 2 : 5;
    p.pool = &pool;  // ladder probes fan out; the curve is bit-identical
    const load::CapacityResult cap =
        load::find_capacity(sub, base_scenario(smoke), p);
    peaks[static_cast<int>(sub)] = cap.peak_rate;
    out.throughput[static_cast<int>(sub)] = cap.peak_throughput;
    std::printf("%-10s %12.1f %12.1f %14.2f\n", to_string(sub), cap.peak_rate,
                cap.peak_throughput, cap.p99_bound_ms);
    json()
        .field("kind", "capacity")
        .field("backend", to_string(sub))
        .field("peak_rate", cap.peak_rate)
        .field("peak_throughput", cap.peak_throughput)
        .field("p99_bound_ms", cap.p99_bound_ms)
        .emit();
    emit_capacity_knobs(sub);
    for (const auto& pt : cap.curve) emit_point("probe", pt.report, pt.rate);
  }
  RELYNX_ASSERT_MSG(
      peaks[static_cast<int>(load::Substrate::kSoda)] >
          peaks[static_cast<int>(load::Substrate::kCharlotte)],
      "SODA must out-sustain Charlotte (paper latency ordering)");
  print_note("every peak is finite, and SODA sustains more than Charlotte —");
  print_note("the paper's latency ordering carries over to capacity.");
  return out;
}

// ---- payload break-even under load (E5 revisited) --------------------------

void payload_report(bool smoke, sweep::ThreadPool& pool) {
  const std::vector<double> payloads =
      smoke ? std::vector<double>{0, 2048, 4096}
            : std::vector<double>{0, 512, 1024, 2048, 3072, 4096};
  // Overload both kernels (both saturate well under 120 req/s) and
  // compare *delivered* throughput: E5's latency break-even, re-asked
  // as "which kernel moves more requests per second at this size?".
  auto delivered = [smoke, &pool, &payloads](load::Substrate sub) {
    return sweep::map<double, load::Report>(
        payloads,
        [sub, smoke](const double& payload) {
          load::Scenario sc = base_scenario(smoke);
          sc.arrival = load::Arrival::kOpenDeterministic;
          sc.offered_rate = 120.0;
          sc.max_backlog_per_client = 256;
          sc.mix = {{static_cast<std::size_t>(payload), 16, 1.0}};
          return load::run_scenario(sub, sc);
        },
        pool);
  };
  const auto soda = delivered(load::Substrate::kSoda);
  const auto charlotte = delivered(load::Substrate::kCharlotte);

  table_header("E12: delivered throughput vs payload at 120 req/s offered");
  std::printf("%-10s %14s %14s\n", "payload", "soda /s", "charlotte /s");
  sim::Series soda_s("soda"), charl_s("charlotte");
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    std::printf("%-10.0f %14.1f %14.1f\n", payloads[i], soda[i].throughput,
                charlotte[i].throughput);
    soda_s.add(payloads[i], soda[i].throughput);
    charl_s.add(payloads[i], charlotte[i].throughput);
    json()
        .field("kind", "payload")
        .field("payload", payloads[i])
        .field("soda_throughput", soda[i].throughput)
        .field("charlotte_throughput", charlotte[i].throughput)
        .emit();
  }
  const double cross = soda_s.crossover_x(charl_s);
  if (std::isnan(cross)) {
    print_note("no break-even on this payload grid");
  } else {
    std::printf("break-even: Charlotte overtakes SODA near %.0f B\n", cross);
    json().field("kind", "breakeven").field("payload_bytes", cross).emit();
    print_note("the throughput twin of E5's latency break-even: SODA's");
    print_note("per-byte cost eventually hands large payloads to Charlotte.");
  }
}

// ---- traced run ------------------------------------------------------------

void traced_run(bool smoke) {
  if (trace_out_path().empty()) return;
  load::Scenario sc = base_scenario(smoke);
  sc.offered_rate = 40.0;
  load::Runner runner(load::Substrate::kSoda, sc);
  trace::Recorder rec(runner.engine(), 1u << 20);
  const load::Report r = runner.run();
  if (trace::write_chrome_trace_file(rec, trace_out_path())) {
    std::printf("loaded SODA run (%.0f req/s, %ld samples) traced to %s\n",
                sc.offered_rate, static_cast<long>(r.samples),
                trace_out_path().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "capacity");
  const bool smoke = bench::smoke();
  // Each --baseline file names its substrate in "backend"; route first so
  // a misrouted file fails before the sweep, not after it.
  const auto subs = load::all_substrates();
  std::vector<std::string> backends;
  for (load::Substrate sub : subs) backends.emplace_back(to_string(sub));
  const auto baselines = route_baselines(baseline_paths(), backends);
  if (!baselines) return 1;

  sweep::ThreadPool pool;
  curves_report(smoke, pool);
  const CapacityPeaks peaks = capacity_report(smoke, pool);
  payload_report(smoke, pool);
  traced_run(smoke);

  bool gate_ok = true;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    const std::string& text = (*baselines)[i];
    if (text.empty()) continue;
    // Every configured gate runs and reports — a SODA regression is
    // named even when Charlotte also regressed.
    gate_ok = gate(backends[i], "peak_throughput", peaks.of(subs[i]),
                   json_number_field(text, "peak_throughput"), Better::kHigher,
                   0.10) &&
              gate_ok;
  }
  return gate_ok ? 0 : 1;
}

// E3 (paper §3.3): Charlotte remote-operation latency.
//
//   "A simple remote operation (no enclosures) requires approximately
//    57 ms with no data transfer and about 65 ms with 1000 bytes of
//    parameters in both directions.  C programs that make the same
//    series of kernel calls require 55 and 60 ms, respectively."
//
// Reproduced: the LYNX run-time package over the simulated Charlotte
// kernel, versus a raw-kernel C-style client making Send / Receive /
// Wait calls directly.
#include "harness.hpp"

namespace {

using namespace bench;

// ---- raw kernel workload (the paper's "C programs") -------------------------

sim::Task<> raw_server(charlotte::Cluster* cl, charlotte::Pid pid,
                       charlotte::EndId end, int n, std::size_t bytes) {
  charlotte::Kernel& k = cl->kernel_of(pid);
  for (int i = 0; i < n; ++i) {
    (void)co_await k.receive(pid, end, 64 * 1024);
    charlotte::Completion c = co_await k.wait(pid);
    RELYNX_ASSERT(c.status == charlotte::Status::kOk);
    (void)co_await k.send(pid, end, charlotte::Payload(bytes, 0));
    c = co_await k.wait(pid);
    RELYNX_ASSERT(c.status == charlotte::Status::kOk);
  }
}

sim::Task<> raw_client(charlotte::Cluster* cl, charlotte::Pid pid,
                       charlotte::EndId end, int n, std::size_t bytes,
                       sim::Time* t0, sim::Time* t1) {
  charlotte::Kernel& k = cl->kernel_of(pid);
  *t0 = cl->engine().now();
  for (int i = 0; i < n; ++i) {
    (void)co_await k.send(pid, end, charlotte::Payload(bytes, 0));
    charlotte::Completion c = co_await k.wait(pid);
    RELYNX_ASSERT(c.status == charlotte::Status::kOk);
    (void)co_await k.receive(pid, end, 64 * 1024);
    c = co_await k.wait(pid);
    RELYNX_ASSERT(c.status == charlotte::Status::kOk);
  }
  *t1 = cl->engine().now();
}

double raw_kernel_rpc_ms(std::size_t bytes, int reps = 10) {
  sim::Engine engine;
  charlotte::Cluster cluster(engine, 4);
  charlotte::Pid ps = cluster.create_process(net::NodeId(0));
  charlotte::Pid pc = cluster.create_process(net::NodeId(1));
  charlotte::LinkPair pair = cluster.bootstrap_link(pc, ps);
  sim::Time t0 = 0, t1 = 0;
  engine.spawn("raw-server",
               raw_server(&cluster, ps, pair.end2, reps, bytes));
  engine.spawn("raw-client",
               raw_client(&cluster, pc, pair.end1, reps, bytes, &t0, &t1));
  engine.run();
  RELYNX_ASSERT(engine.process_failures().empty());
  return sim::to_msec(t1 - t0) / reps;
}

double lynx_charlotte_ms(std::size_t bytes) {
  Pair w(Substrate::kCharlotte);
  return lynx_rpc_ms(w, bytes);
}

void report() {
  const double lynx0 = lynx_charlotte_ms(0);
  const double lynx1000 = lynx_charlotte_ms(1000);
  const double raw0 = raw_kernel_rpc_ms(0);
  const double raw1000 = raw_kernel_rpc_ms(1000);

  table_header("E3: Charlotte simple remote operation (paper §3.3)");
  print_rows({
      {"LYNX remote op, no data", 57.0, lynx0, "ms"},
      {"LYNX remote op, 1000 B both ways", 65.0, lynx1000, "ms"},
      {"raw kernel calls (C), no data", 55.0, raw0, "ms"},
      {"raw kernel calls (C), 1000 B both ways", 60.0, raw1000, "ms"},
  });
  print_note("shape checks: LYNX > raw (run-time package overhead), and");
  print_note("payload adds single-digit ms at 10 Mb/s.");
  std::printf("  run-time overhead, null op: paper %.1f ms, measured %.2f ms\n",
              57.0 - 55.0, lynx0 - raw0);

  // The same table, decomposed: where does a 1000-byte round trip spend
  // its time?  Derived from the trace spans of one recorded run.
  Pair tw(Substrate::kCharlotte);
  traced_phase_report(tw, "E3 Charlotte RPC (1000 B both ways)", 1000);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "charlotte_rpc");
  report();
  return 0;
}

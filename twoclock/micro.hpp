// Isolated micro-benchmarks for layer boundaries the full stack hides.
// Each times one layer through its public calls, checks its own output,
// and reports the median of several batches.
#pragma once

#include <string>
#include <vector>

namespace twoclock {

struct MicroResult {
  std::string name;  // metric name
  std::string unit;
  double value = 0.0;
  bool ok = true;    // its own output check
};

// sim: an engine-only storm of self-rescheduling event chains.
[[nodiscard]] MicroResult engine_storm();
// lynx message: serialize and deserialize at the workloads' sizes plus a
// one-enclosure message.
[[nodiscard]] std::vector<MicroResult> message_codec();
// chrysalis: a dual-queue ping-pong between two processes.
[[nodiscard]] MicroResult dual_queue_pingpong();

// The host-speed probe.  The host is shared, and its neighbours slow it
// in phases that last from seconds to minutes, by up to 1.7x (NOTES.md,
// "Noise").  Every host time the benchmark reports is scaled by this
// probe taken around its run: fixed work shaped like the simulator's
// (hash-map churn and a heap of timed callables) that no change to
// relynx can alter.  Returns the probe's host time in microseconds.
[[nodiscard]] double probe_us();
// A scaled time reads as host time on a host where the probe takes this.
inline constexpr double kProbeNominalUs = 10000.0;

}  // namespace twoclock

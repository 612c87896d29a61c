// One world construction and one set of load generators for all three
// workloads and all three substrates.
//
// A run builds an engine, the substrate's medium and kernels, the server
// and client processes and their bootstrap links (the timed set-up),
// then drives the workload's generator for a fixed simulated window:
// warm-up, measure, drain.  Everything simulated is a pure function of
// (workload, substrate, seed); the host clock is read only at set-up and
// at two events scheduled on the measure window's edges.
//
// The timed run and the traced run share all of this code.  They differ
// only in the Instruments passed in: a SpanLog installs the bench-side
// medium decorator, and `recorder` attaches a trace::Recorder for the
// measure window.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace twoclock {

class SpanLog;

enum class Sub : std::uint8_t { kCharlotte = 0, kSoda = 1, kChrysalis = 2 };
inline constexpr std::array<Sub, 3> kSubs = {Sub::kCharlotte, Sub::kSoda,
                                             Sub::kChrysalis};
[[nodiscard]] const char* name_of(Sub s);

enum class Kind : std::uint8_t { kFanIn, kPipeline, kMoveChurn };

struct SizePoint {
  std::size_t request_bytes = 64;
  std::size_t reply_bytes = 64;
  double weight = 1.0;
};

// Simulated windows of one substrate, relative to the first request.
struct Windows {
  sim::Duration warmup = 0;
  sim::Duration measure = 0;
  sim::Duration drain = 0;
};

struct Workload {
  std::string name;
  Kind kind = Kind::kFanIn;
  std::size_t clients = 0;
  std::size_t servers = 0;         // fan-in and move-churn servers; stages
  std::size_t server_threads = 1;  // worker threads per server process
  bool open_loop = false;
  std::array<double, 3> rate{};    // open loop: total req/s, per substrate
  std::vector<SizePoint> mix;
  sim::Duration service_mean = 0;  // exponential server work per request
  std::array<Windows, 3> windows{};
  // Independent universes per run, each with its own seed, pooled into
  // one result: more samples where one universe's results swing with
  // the seed.
  std::array<int, 3> universes{1, 1, 1};
};

// nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(std::string_view name);
[[nodiscard]] const std::vector<Workload>& all_workloads();

// Everything simulated about one run.  Two runs of the same (workload,
// substrate, seed) must compare equal field for field, whatever
// instruments are installed.
struct SimResult {
  // RPCs started in the measure window and what became of them.
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;   // finished with a correct reply
  std::uint64_t wrong = 0;       // finished with a wrong reply
  std::uint64_t errors = 0;      // ended in a LynxError
  std::uint64_t unfinished = 0;  // still open at the cut-off
  std::uint64_t shed = 0;        // open loop: arrivals refused by the cap
  std::uint64_t server_errors = 0;  // LynxErrors felt by server threads
  std::uint64_t thread_failures = 0;  // threads or processes that died
  bool backlog_grew = false;      // open loop: sustainability verdict
  std::array<std::int64_t, 9> backlog{};  // in-flight RPCs at 9 window points

  // Measure-window counts, sampled at the two window-edge events.
  std::uint64_t window_completions = 0;  // completion time in window
  std::uint64_t events = 0;
  std::uint64_t frames = 0;  // medium frames; Chrysalis: enqueue calls
  std::uint64_t bytes = 0;   // medium bytes; 0 on Chrysalis
  std::uint64_t protocol_msgs = 0;
  std::uint64_t enc_packets = 0;      // Charlotte backend Stats
  std::uint64_t retries = 0;          // Charlotte backend Stats
  std::uint64_t hint_misses = 0;      // SODA backend Stats
  std::uint64_t freeze_searches = 0;  // SODA backend Stats
  std::uint64_t requests_issued = 0;  // SODA backend Stats

  // Latency in simulated ms of every attempted RPC; failed and
  // unfinished ones are censored at the cut-off.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t latency_digest = 0;  // FNV-1a over latencies, call order
  sim::Time end_time = 0;
  double measure_s = 0.0;

  [[nodiscard]] std::uint64_t failed() const {
    return wrong + errors + unfinished + shed;
  }
  [[nodiscard]] double rpc_per_sim_s() const {
    return static_cast<double>(window_completions) / measure_s;
  }
  [[nodiscard]] std::uint64_t digest() const;
  bool operator==(const SimResult&) const = default;
};

struct Instruments {
  SpanLog* spans = nullptr;  // wraps the medium (Charlotte and SODA)
  bool recorder = false;     // trace::Recorder over the measure window
};

// trace::PhaseTable totals for call.gather, call.send, call.wait and
// call.scatter, in that order.
struct PhaseTotals {
  std::array<double, 4> total_ms{};
  std::array<std::uint64_t, 4> count{};
  [[nodiscard]] double mean_ms(std::size_t i) const {
    return count[i] == 0 ? 0.0 : total_ms[i] / static_cast<double>(count[i]);
  }
};

struct RunOutput {
  SimResult sim;
  // Host seconds, summed over universes.
  double setup_s = 0.0;   // engine, kernels, processes, links
  double window_s = 0.0;  // between the window-edge events
  PhaseTotals phases;     // recorder runs only
  std::uint64_t trace_overwritten = 0;  // recorder runs only
};

[[nodiscard]] RunOutput run_once(const Workload& w, Sub sub,
                                 std::uint64_t seed, Instruments inst);

}  // namespace twoclock

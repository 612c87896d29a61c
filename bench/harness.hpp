// Shared infrastructure for the experiment benches.
//
// Every bench binary regenerates one of the paper's tables or figures
// (see DESIGN.md §4).  Each prints a paper-vs-measured table on stdout
// plus one JSON-lines record per row; benches that guard a perf claim
// compare a measured number against a checked-in baseline through the
// one gate() below.  Every run is a pure function of --seed, except
// bench_sim, whose metrics are wall-clock rates.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "load/world.hpp"
#include "lynx/lynx.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sweep/sweep.hpp"
#include "trace/perfetto.hpp"
#include "trace/phases.hpp"
#include "trace/trace.hpp"

namespace bench {

using load::Substrate;

// ---- unified entry ---------------------------------------------------------
//
// Every bench main starts with
//     bench::init(argc, argv, "<bench-name>");
// which owns the whole command line:
//     --json-out=FILE    append every JSON-lines record to FILE as well
//                        as stdout
//     --trace-out=FILE   benches that support causal tracing write a
//                        Chrome-trace/Perfetto JSON of one traced run
//                        (ignored by benches that don't)
//     --seed=N           master seed for every seeded world/scenario in
//                        the bench (default 2026), so a specific run —
//                        one JSON record, one capacity curve — can be
//                        reproduced without recompiling
//     --smoke            the CI-sized version of benches that have one
//     --baseline=PATH    a flat JSON baseline for the bench's gates
//                        (repeatable; see gate() below)
// A bench's own flags go through `local`, which returns true for each
// argument it consumes.  Anything else prints "unknown flag X" and
// exits 2, so a misspelt gate flag cannot silently disable the gate.

inline std::FILE*& json_file() {
  static std::FILE* f = nullptr;
  return f;
}
inline std::string& bench_name() {
  static std::string name;
  return name;
}
inline std::string& trace_out_path() {
  static std::string path;
  return path;
}
inline std::uint64_t& seed() {
  static std::uint64_t s = 2026;
  return s;
}
inline bool& smoke() {
  static bool on = false;
  return on;
}
inline std::vector<std::string>& baseline_paths() {
  static std::vector<std::string> paths;
  return paths;
}

inline void init(int argc, char** argv, const char* name,
                 const std::function<bool(const std::string&)>& local = {}) {
  bench_name() = name;
  baseline_paths().clear();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string json_flag = "--json-out=";
    const std::string trace_flag = "--trace-out=";
    const std::string seed_flag = "--seed=";
    const std::string baseline_flag = "--baseline=";
    if (arg.rfind(json_flag, 0) == 0) {
      const std::string path = arg.substr(json_flag.size());
      json_file() = std::fopen(path.c_str(), "w");
      if (json_file() == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
      }
    } else if (arg.rfind(trace_flag, 0) == 0) {
      trace_out_path() = arg.substr(trace_flag.size());
    } else if (arg.rfind(seed_flag, 0) == 0) {
      seed() = std::strtoull(arg.substr(seed_flag.size()).c_str(), nullptr, 10);
    } else if (arg == "--smoke") {
      smoke() = true;
    } else if (arg.rfind(baseline_flag, 0) == 0) {
      baseline_paths().push_back(arg.substr(baseline_flag.size()));
    } else if (!local || !local(arg)) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::exit(2);
    }
  }
  std::atexit([] {
    if (json_file() != nullptr) {
      std::fclose(json_file());
      json_file() = nullptr;
    }
  });
}

// ---- worlds: one client/server pair --------------------------------------

inline sim::Task<> wire_pair(lynx::Process* server, lynx::Process* client,
                             lynx::LinkHandle* server_end,
                             lynx::LinkHandle* client_end) {
  auto [se, ce] = co_await lynx::connect_any(*server, *client);
  *server_end = se;
  *client_end = ce;
}

// Starts both processes and joins them with one bootstrap link.
inline void boot(sim::Engine& engine, lynx::Process& server,
                 lynx::Process& client, lynx::LinkHandle* server_end,
                 lynx::LinkHandle* client_end) {
  server.start();
  client.start();
  engine.spawn("wire", wire_pair(&server, &client, server_end, client_end));
  engine.run();
}

// A server on node 0 and a client on node 1 of one load::World.
struct Pair {
  explicit Pair(Substrate s, load::WorldParams p = params())
      : world(engine, s, std::move(p)),
        server(world.make_process("server", 0)),
        client(world.make_process("client", 1)) {
    boot(engine, server, client, &server_end, &client_end);
  }
  // A quiet world seeded by --seed.
  static load::WorldParams params() {
    load::WorldParams p;
    p.bus_seed = bench::seed();
    return p;
  }

  sim::Engine engine;
  load::World world;
  lynx::Process& server;
  lynx::Process& client;
  lynx::LinkHandle server_end;
  lynx::LinkHandle client_end;
};

[[nodiscard]] inline const lynx::CharlotteBackend::Stats& charlotte_stats(
    lynx::Process& p) {
  return dynamic_cast<lynx::CharlotteBackend&>(p.backend()).stats();
}

// ---- the standard workload: N echo RPCs with a given payload ---------------

inline sim::Task<> echo_server(lynx::ThreadCtx& ctx, lynx::LinkHandle link,
                               int n) {
  ctx.enable_requests(link);
  for (int i = 0; i < n; ++i) {
    try {
      lynx::Incoming in = co_await ctx.receive();
      lynx::Message rep;
      rep.args = in.msg.args;
      co_await ctx.reply(in, std::move(rep));
    } catch (const lynx::LynxError& e) {
      // The client finished and hung up; under loss its teardown can
      // race our last reply's delivery ack.  End of service, not error.
      if (e.kind() == lynx::ErrorKind::kLinkDestroyed) break;
      throw;
    }
  }
}

inline sim::Task<> echo_client(lynx::ThreadCtx& ctx, lynx::LinkHandle link,
                               int n, std::size_t bytes, sim::Time* t0,
                               sim::Time* t1, sim::Engine* engine) {
  {  // warm-up op excluded from timing
    lynx::Message m = lynx::make_message("op", {lynx::Bytes(1, 0)});
    (void)co_await ctx.call(link, std::move(m));
  }
  *t0 = engine->now();
  for (int i = 0; i < n; ++i) {
    lynx::Message m = lynx::make_message("op", {lynx::Bytes(bytes, 0)});
    (void)co_await ctx.call(link, std::move(m));
  }
  *t1 = engine->now();
}

// Runs N echo RPCs on a world; returns mean simulated ms per operation.
template <typename World>
double lynx_rpc_ms(World& w, std::size_t bytes, int reps = 10) {
  sim::Time t0 = 0, t1 = 0;
  w.server.spawn_thread("srv", [&](lynx::ThreadCtx& ctx) {
    return echo_server(ctx, w.server_end, reps + 1);
  });
  w.client.spawn_thread("cli", [&](lynx::ThreadCtx& ctx) {
    return echo_client(ctx, w.client_end, reps, bytes, &t0, &t1, &w.engine);
  });
  w.engine.run();
  RELYNX_ASSERT_MSG(w.engine.process_failures().empty(),
                    "bench workload failed");
  return sim::to_msec(t1 - t0) / reps;
}

// ---- machine-readable output ----------------------------------------------

// One JSON object per line ("JSON lines"): benches emit a record per
// measured configuration so curves can be re-plotted without parsing
// the human tables.  Records go to stdout and, under --json-out=FILE,
// to that file too.
class JsonLine {
 public:
  JsonLine& field(const std::string& key, const std::string& value) {
    sep();
    buf_ += '"' + key + "\":\"" + value + '"';
    return *this;
  }
  JsonLine& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonLine& field(const std::string& key, double value) {
    char num[64] = "null";  // JSON has no NaN or infinity
    if (std::isfinite(value)) std::snprintf(num, sizeof num, "%.6g", value);
    sep();
    buf_ += '"' + key + "\":" + num;
    return *this;
  }
  JsonLine& field(const std::string& key, std::int64_t value) {
    sep();
    buf_ += '"' + key + "\":" + std::to_string(value);
    return *this;
  }
  void emit() {
    std::printf("%s}\n", buf_.c_str());
    if (json_file() != nullptr) {
      std::fprintf(json_file(), "%s}\n", buf_.c_str());
    }
  }

 private:
  void sep() {
    if (buf_.size() > 1) buf_ += ',';
  }
  std::string buf_ = "{";
};

// A JsonLine pre-tagged with the bench name given to init().
inline JsonLine json() {
  JsonLine j;
  if (!bench_name().empty()) j.field("bench", bench_name());
  return j;
}

// ---- traced runs -----------------------------------------------------------

// Runs the echo workload once with a live trace recorder and prints the
// per-phase RPC decomposition derived from the spans.  Under
// --trace-out=FILE the run is also exported as Chrome-trace/Perfetto
// JSON.  Coverage compares the mean "call" span against the measured
// per-op end-to-end latency (the warm-up op is traced but untimed, so
// the comparison is per-op, not total).
template <typename World>
void traced_phase_report(World& w, const char* title, std::size_t bytes = 0,
                         int reps = 10) {
  trace::Recorder rec(w.engine, 1u << 18);
  sim::Time t0 = 0, t1 = 0;
  w.server.spawn_thread("srv", [&](lynx::ThreadCtx& ctx) {
    return echo_server(ctx, w.server_end, reps + 1);
  });
  w.client.spawn_thread("cli", [&](lynx::ThreadCtx& ctx) {
    return echo_client(ctx, w.client_end, reps, bytes, &t0, &t1, &w.engine);
  });
  w.engine.run();
  RELYNX_ASSERT_MSG(w.engine.process_failures().empty(),
                    "traced workload failed");

  std::printf("\n--- %s: per-phase decomposition (from trace spans) ---\n",
              title);
  trace::PhaseTable table(rec);
  table.print();

  const double e2e_ms = sim::to_msec(t1 - t0) / reps;
  const double span_ms = table.mean_ms("call");
  const double coverage = e2e_ms > 0 ? 100.0 * span_ms / e2e_ms : 0.0;
  std::printf("  \"call\" spans cover %.1f%% of measured end-to-end latency"
              " (%.3f / %.3f ms per op)\n",
              coverage, span_ms, e2e_ms);
  json()
      .field("phase_span_ms", span_ms)
      .field("e2e_ms", e2e_ms)
      .field("span_coverage_pct", coverage)
      .emit();
  if (!trace_out_path().empty()) {
    if (trace::write_chrome_trace_file(rec, trace_out_path())) {
      std::printf("  trace written to %s (load in ui.perfetto.dev)\n",
                  trace_out_path().c_str());
    } else {
      std::fprintf(stderr, "  cannot write %s\n", trace_out_path().c_str());
    }
  }
}

// ---- table printing ----------------------------------------------------------

inline void table_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

struct Row {
  std::string label;
  double paper;
  double measured;
  std::string unit;
};


inline void print_note(const std::string& s) {
  std::printf("  %s\n", s.c_str());
}

// Human table plus one JSON-lines record per row.
inline void print_rows(const std::vector<Row>& rows) {
  std::printf("%-44s %12s %12s  %s\n", "quantity", "paper", "measured",
              "unit");
  for (const Row& r : rows) {
    std::printf("%-44s %12.2f %12.2f  %s\n", r.label.c_str(), r.paper,
                r.measured, r.unit.c_str());
  }
  for (const Row& r : rows) {
    json()
        .field("label", r.label)
        .field("paper", r.paper)
        .field("measured", r.measured)
        .field("unit", r.unit)
        .emit();
  }
}

// ---- baseline gates --------------------------------------------------------

// Reads a whole baseline file; nullopt, with a note on stderr, when it
// cannot be read.
inline std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "baseline: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Flat-JSON field reads: find the quoted key, skip the colon, parse the
// value.  NaN / "" when the key is absent or holds the other type.
inline std::size_t json_value_at(const std::string& text,
                                 const std::string& key) {
  const std::size_t at = text.find('"' + key + '"');
  if (at == std::string::npos) return std::string::npos;
  const std::size_t colon = text.find(':', at + key.size() + 2);
  if (colon == std::string::npos) return std::string::npos;
  return text.find_first_not_of(" \t\r\n", colon + 1);
}

inline double json_number_field(const std::string& text,
                                const std::string& key) {
  const std::size_t p = json_value_at(text, key);
  if (p == std::string::npos) return std::nan("");
  char* end = nullptr;
  const double v = std::strtod(text.c_str() + p, &end);
  return end == text.c_str() + p ? std::nan("") : v;
}

inline std::string json_string_field(const std::string& text,
                                     const std::string& key) {
  const std::size_t p = json_value_at(text, key);
  if (p == std::string::npos || text[p] != '"') return "";
  const std::size_t end = text.find('"', p + 1);
  if (end == std::string::npos) return "";
  return text.substr(p + 1, end - p - 1);
}

// Routes each --baseline file to the backend its "backend" field names.
// Returns one file text per entry of `backends` ("" where no file names
// it), or nullopt, after saying why on stderr, when a file cannot be
// read, names a backend outside `backends`, or repeats one.
inline std::optional<std::vector<std::string>> route_baselines(
    const std::vector<std::string>& paths,
    const std::vector<std::string>& backends) {
  std::vector<std::string> texts(backends.size());
  for (const std::string& path : paths) {
    const std::optional<std::string> text = read_file(path);
    if (!text) return std::nullopt;
    const std::string backend = json_string_field(*text, "backend");
    std::size_t i = 0;
    while (i < backends.size() && backends[i] != backend) ++i;
    if (i == backends.size()) {
      std::fprintf(stderr,
                   "baseline: %s is for backend \"%s\", not gated here\n",
                   path.c_str(), backend.c_str());
      return std::nullopt;
    }
    if (!texts[i].empty()) {
      std::fprintf(stderr, "baseline: %s is a second baseline for %s\n",
                   path.c_str(), backend.c_str());
      return std::nullopt;
    }
    texts[i] = *text;
  }
  return texts;
}

enum class Better { kHigher, kLower };

// The one baseline gate.  A kHigher metric must reach
// baseline * (1 - tolerance); a kLower one must stay within
// baseline * (1 + tolerance).  A NaN baseline (missing file or key)
// fails.  Better numbers pass without moving the baseline: refreshing a
// baseline file is a deliberate, reviewed act, not something a lucky
// run does.  Pass or fail, the gate prints one verdict line and emits
// one baseline_check record, so a red CI log says what regressed
// without opening JSON.
inline bool gate(const std::string& label, const std::string& metric,
                 double measured, double baseline, Better better,
                 double tolerance) {
  const bool higher = better == Better::kHigher;
  const double bound =
      baseline * (higher ? 1.0 - tolerance : 1.0 + tolerance);
  const bool ok = higher ? measured >= bound : measured <= bound;
  const double delta_pct = (measured - baseline) / baseline * 100.0;
  if (std::isnan(baseline)) {
    std::printf("baseline gate REGRESSION: %s %s: measured %.2f, no baseline\n",
                label.c_str(), metric.c_str(), measured);
  } else {
    std::printf(
        "baseline gate %s: %s %s: measured %.2f vs baseline %.2f, "
        "%s %.2f (tolerance %.0f%%), delta %+.1f%%\n",
        ok ? "ok" : "REGRESSION", label.c_str(), metric.c_str(), measured,
        baseline, higher ? "floor" : "ceiling", bound, tolerance * 100.0,
        delta_pct);
  }
  json()
      .field("kind", "baseline_check")
      .field("label", label)
      .field("metric", metric)
      .field("measured", measured)
      .field("baseline", baseline)
      .field("bound", bound)
      .field("better", higher ? "higher" : "lower")
      .field("tolerance", tolerance)
      .field("delta_pct", delta_pct)
      .field("ok", ok ? 1.0 : 0.0)
      .emit();
  return ok;
}

}  // namespace bench

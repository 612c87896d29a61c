// twoclock: relynx's two-clock benchmark.
//
//   twoclock --workload NAME --seed N --seconds S --trace 0|1
//            [--spans-dir DIR]
//
// Runs one workload on Charlotte, SODA and Chrysalis, one engine at a
// time on this thread.  --trace 0 repeats the untraced run for S host
// seconds and prints the end-to-end metrics; --trace 1 makes the traced
// pass (medium decorator, trace::Recorder, layer micro-benchmarks) and
// prints the per-layer metrics.  The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  NOTES.md
// defines every metric.
//
// Exit status: 0 when every check passed; 1 on a wrong reply, a failed
// micro-benchmark or self-check, or simulated results that differ between runs
// of one seed; 2 when a fanin-small rate is not sustainable; 3 on bad
// usage.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "micro.hpp"
#include "spans.hpp"
#include "world.hpp"

namespace twoclock {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_dir;
};

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] - '0';
    } else if (k == "--spans-dir") {
      a.spans_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload;
}

// Index of the median of `v` (the lower one for an even count).
std::size_t median_index(const std::vector<double>& v) {
  std::vector<std::size_t> idx(v.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  const auto mid =
      idx.begin() + static_cast<std::ptrdiff_t>((v.size() - 1) / 2);
  std::nth_element(idx.begin(), mid, idx.end(),
                   [&v](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  return *mid;
}

double median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : v[median_index(v)];
}

// One run with the host-speed probe (micro.hpp) taken before and after
// it; `scale` converts its host times to the probe's nominal host speed.
struct Measured {
  RunOutput out;
  double scale = 1.0;
};

Measured measure(const Workload& w, Sub sub, std::uint64_t seed,
                 Instruments inst) {
  const double before = probe_us();
  Measured m{run_once(w, sub, seed, inst), 1.0};
  const double after = probe_us();
  m.scale = kProbeNominalUs / (0.5 * (before + after));
  return m;
}

double per(double x, std::uint64_t n) {
  return n == 0 ? 0.0 : x / static_cast<double>(n);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Collects metrics and the verdict, then prints the table and the
// closing JSON line.
class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) {
      fail(name + " is not a finite number");
      value = 0.0;
    }
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& why) {
    std::fprintf(stderr, "twoclock: CHECK FAILED: %s\n", why.c_str());
    correct_ = false;
  }
  void count(const SimResult& r) {
    attempted_ += r.attempted;
    failed_ += r.failed();
  }
  [[nodiscard]] bool correct() const { return correct_; }

  void print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

void print_sim(const char* pass, Sub sub, const SimResult& r) {
  std::printf(
      "%-9s %-9s attempted %llu completed %llu failed %llu (wrong %llu, "
      "errors %llu, unfinished %llu, shed %llu) p50 %.3f ms p99 %.3f ms "
      "rpc/s %.2f events %llu digest %016llx\n",
      pass, name_of(sub), static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.failed()),
      static_cast<unsigned long long>(r.wrong),
      static_cast<unsigned long long>(r.errors),
      static_cast<unsigned long long>(r.unfinished),
      static_cast<unsigned long long>(r.shed), r.p50_ms, r.p99_ms,
      r.rpc_per_sim_s(), static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.digest()));
}

// Output checks every pass applies to its simulated results.
void check_outputs(Report& rep, const Workload& w, Sub sub,
                   const SimResult& r) {
  const std::string where = w.name + "/" + name_of(sub);
  if (r.wrong != 0) rep.fail(where + ": wrong replies or requests");
  if (r.attempted == 0) rep.fail(where + ": no RPC attempted");
  if (r.window_completions == 0) rep.fail(where + ": no RPC completed");
}

// fanin-small must run below capacity: nothing shed, backlog flat.
bool sustainable(const Workload& w, Sub sub, const SimResult& r) {
  if (!w.open_loop) return true;
  if (r.shed == 0 && !r.backlog_grew) return true;
  std::fprintf(stderr,
               "twoclock: UNSUSTAINABLE %s/%s at %.0f req/s: shed %llu, "
               "in-flight across the window:",
               w.name.c_str(), name_of(sub), w.rate[static_cast<int>(sub)],
               static_cast<unsigned long long>(r.shed));
  for (std::int64_t b : r.backlog) std::fprintf(stderr, " %lld", (long long)b);
  std::fprintf(stderr, "\n");
  return false;
}

int run_timed(const Workload& w, const Args& a) {
  Report rep;
  const auto t_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(a.seconds));
  std::array<SimResult, 3> first{};
  std::array<std::vector<double>, 3> wall_us;
  std::vector<double> setup_s;
  bool ok_rate = true;
  for (int r = 0;; ++r) {
    const auto t_rep = Clock::now();
    double setup = 0.0;
    for (Sub sub : kSubs) {
      const auto i = static_cast<std::size_t>(sub);
      const Measured m = measure(w, sub, a.seed, Instruments{});
      const RunOutput& out = m.out;
      setup += out.setup_s * m.scale;
      wall_us[i].push_back(
          per(out.window_s * m.scale * 1e6, out.sim.window_completions));
      if (r == 0) {
        first[i] = out.sim;
        print_sim("timed", sub, out.sim);
        check_outputs(rep, w, sub, out.sim);
        rep.count(out.sim);
        ok_rate = sustainable(w, sub, out.sim) && ok_rate;
      } else if (!(out.sim == first[i])) {
        rep.fail(w.name + "/" + name_of(sub) +
                 ": simulated results differ between runs of one seed");
      }
    }
    setup_s.push_back(setup);
    if (!ok_rate) break;
    // At least three repetitions; then stop before the next would
    // overrun the measurement time.
    const auto rep_time = Clock::now() - t_rep;
    if (r + 1 >= 3 && Clock::now() + rep_time > t_end) break;
  }
  std::printf("repetitions %zu\n", setup_s.size());

  rep.add("setup_s", median(setup_s), "s");
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  for (Sub sub : kSubs) {
    const auto i = static_cast<std::size_t>(sub);
    const std::string n = name_of(sub);
    const SimResult& r = first[i];
    rep.add("wall_us_per_rpc." + n, median(wall_us[i]), "us");
    rep.add("sim_p50_ms." + n, r.p50_ms, "sim_ms");
    rep.add("sim_p99_ms." + n, r.p99_ms, "sim_ms");
    rep.add("sim_rpc_per_s." + n, r.rpc_per_sim_s(), "1/sim_s");
    attempted += r.attempted;
    completed += r.completed;
  }
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("rpc_ok_frac", per(static_cast<double>(completed), attempted),
          "ratio");
  rep.print();
  if (!ok_rate) return 2;
  return rep.correct() ? 0 : 1;
}

int run_traced(const Workload& w, const Args& a) {
  Report rep;
  const auto t0 = Clock::now();
  // The micro-benchmarks take about a second; the passes get the rest.
  const double pass_budget = std::max(0.5 * a.seconds, a.seconds - 2.0);
  const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(pass_budget));

  struct PerSub {
    SimResult sim;
    // Host seconds of each pass, scaled by its probe.
    std::vector<double> bare_s, recorded_s, spanned_s, send_s, deliver_s;
    PhaseTotals phases;
  };
  std::array<PerSub, 3> ps;
  for (int r = 0;; ++r) {
    const auto t_rep = Clock::now();
    for (Sub sub : kSubs) {
      const auto i = static_cast<std::size_t>(sub);
      const std::string where = w.name + "/" + name_of(sub);
      const Measured mb = measure(w, sub, a.seed, Instruments{});
      const RunOutput& bare = mb.out;
      if (r == 0) {
        ps[i].sim = bare.sim;
        print_sim("bare", sub, bare.sim);
        check_outputs(rep, w, sub, bare.sim);
        rep.count(bare.sim);
      } else if (!(bare.sim == ps[i].sim)) {
        rep.fail(where + ": simulated results differ between runs of one seed");
      }
      ps[i].bare_s.push_back(bare.window_s * mb.scale);

      if (sub != Sub::kChrysalis) {  // no medium to decorate
        SpanLog log;
        const Measured ms = measure(w, sub, a.seed, Instruments{&log, false});
        const RunOutput& sp = ms.out;
        if (!(sp.sim == bare.sim)) {
          print_sim("decorated", sub, sp.sim);
          rep.fail(where + ": the medium decorator changed simulated results");
        }
        const SpanLog::Totals t = log.totals();
        // Self times partition the root spans' time exactly.
        if (std::abs(t.self_sum() - t.roots_s) > 1e-6 * (1.0 + t.roots_s) ||
            t.roots_s > sp.window_s) {
          rep.fail(where + ": span self times do not add up");
        }
        ps[i].spanned_s.push_back(sp.window_s * ms.scale);
        ps[i].send_s.push_back(
            (t.self_s[SpanLog::kNetSend] + t.self_s[SpanLog::kNetBroadcast]) *
            ms.scale);
        ps[i].deliver_s.push_back(t.self_s[SpanLog::kDeliver] * ms.scale);
        if (r == 0 && !a.spans_dir.empty()) {
          const std::string path =
              a.spans_dir + "/" + w.name + "." + name_of(sub) + ".spans.csv";
          if (!log.write_csv(path)) rep.fail("cannot write " + path);
        }
      }

      const Measured mr = measure(w, sub, a.seed, Instruments{nullptr, true});
      const RunOutput& rec = mr.out;
      if (!(rec.sim == bare.sim)) {
        print_sim("recorded", sub, rec.sim);
        rep.fail(where + ": the trace recorder changed simulated results");
      }
      if (rec.trace_overwritten != 0) {
        rep.fail(where + ": trace ring overflowed; phase means truncated");
      }
      ps[i].recorded_s.push_back(rec.window_s * mr.scale);
      ps[i].phases = rec.phases;
    }
    const auto rep_time = Clock::now() - t_rep;
    if (Clock::now() + rep_time > t_end) break;
  }

  double bare_total = 0.0;
  double spanned_total = 0.0;
  for (Sub sub : kSubs) {
    const auto i = static_cast<std::size_t>(sub);
    const std::string n = name_of(sub);
    const PerSub& p = ps[i];
    const SimResult& s = p.sim;
    const std::uint64_t rpcs = s.window_completions;
    const double bare = median(p.bare_s);
    rep.add("sim.events_per_rpc." + n, per(static_cast<double>(s.events), rpcs),
            "count");
    rep.add("sim.ns_per_event." + n, per(bare * 1e9, s.events), "ns");
    rep.add("net.frames_per_rpc." + n, per(static_cast<double>(s.frames), rpcs),
            "count");
    if (sub != Sub::kChrysalis) {
      // All three from the decorated pass with the median window, so the
      // remainder and the self times add up to that window.
      const std::size_t k = median_index(p.spanned_s);
      const double send = p.send_s[k];
      const double deliver = p.deliver_s[k];
      const double spanned = p.spanned_s[k];
      rep.add("net.bytes_per_rpc." + n, per(static_cast<double>(s.bytes), rpcs),
              "B");
      rep.add("net.send_us_per_rpc." + n, per(send * 1e6, rpcs), "us");
      rep.add("kernel.deliver_us_per_rpc." + n, per(deliver * 1e6, rpcs), "us");
      rep.add("stack.other_us_per_rpc." + n,
              per((spanned - send - deliver) * 1e6, rpcs), "us");
      bare_total += bare;
      spanned_total += spanned;
    } else {
      rep.add("stack.other_us_per_rpc." + n, per(bare * 1e6, rpcs), "us");
    }
    rep.add("backend.protocol_msgs_per_rpc." + n,
            per(static_cast<double>(s.protocol_msgs), rpcs), "count");
    if (sub == Sub::kCharlotte) {
      rep.add("backend.enc_packets_per_rpc." + n,
              per(static_cast<double>(s.enc_packets), rpcs), "count");
      rep.add("backend.retries_per_rpc." + n,
              per(static_cast<double>(s.retries), rpcs), "count");
    } else if (sub == Sub::kSoda) {
      rep.add("backend.hint_misses_per_rpc." + n,
              per(static_cast<double>(s.hint_misses), rpcs), "count");
      rep.add("backend.freeze_searches_per_rpc." + n,
              per(static_cast<double>(s.freeze_searches), rpcs), "count");
      rep.add("backend.requests_issued_per_rpc." + n,
              per(static_cast<double>(s.requests_issued), rpcs), "count");
    }
    rep.add("trace.overhead_pct." + n,
            100.0 * (median(p.recorded_s) / bare - 1.0), "%");
    const char* phases[] = {"gather", "send", "wait", "scatter"};
    for (std::size_t k = 0; k < 4; ++k) {
      rep.add(std::string("trace.phase_ms.") + phases[k] + "." + n,
              p.phases.mean_ms(k), "sim_ms");
    }
    rep.add("rpc.attempted." + n, static_cast<double>(s.attempted), "count");
    rep.add("rpc.failed." + n, static_cast<double>(s.failed()), "count");
  }
  rep.add("bench.span_overhead_pct", 100.0 * (spanned_total / bare_total - 1.0),
          "%");

  std::vector<MicroResult> micros = {engine_storm(), dual_queue_pingpong()};
  for (MicroResult& m : message_codec()) micros.push_back(std::move(m));
  for (const MicroResult& d : micros) {
    if (!d.ok) rep.fail("micro-benchmark " + d.name + ": output check");
    rep.add(d.name, d.value, d.unit);
  }
  std::printf("traced passes per substrate %zu\n", ps[0].bare_s.size());
  rep.print();
  return rep.correct() ? 0 : 1;
}

}  // namespace
}  // namespace twoclock

int main(int argc, char** argv) {
  twoclock::Args args;
  if (!twoclock::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: twoclock --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-dir DIR]\n");
    return 3;
  }
  const twoclock::Workload* w = twoclock::find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "twoclock: unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const auto& k : twoclock::all_workloads()) {
      std::fprintf(stderr, " %s", k.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 3;
  }
  std::printf("twoclock workload %s seed %llu seconds %g trace %d\n",
              w->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  return args.trace == 0 ? twoclock::run_timed(*w, args)
                         : twoclock::run_traced(*w, args);
}

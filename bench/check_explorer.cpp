// E13: the schedule-exploration checker as a CLI (DESIGN.md §9).
//
// Four phases, all reported as JSON lines and summarized for humans:
//
//   1. sweep           — seeds x {charlotte, soda, chrysalis} x {fifo,
//                        perm} x {none, ack-storm, both-dark} on the
//                        echo workload; a conforming build finishes
//                        with zero failures.
//   2. self-test       — the same universes with the deliberately
//                        injected Charlotte re-ack bug armed; the
//                        checker must catch it, shrink it, and emit a
//                        replayable repro token.  A checker that cannot
//                        see a planted bug proves nothing about the
//                        absence of real ones.
//   3. replica sweep   — the replicated KV service under {none,
//                        primary-crash, primary-bounce, backup-bounce}
//                        on every substrate; the linearizability oracle
//                        joins the panel (DESIGN.md §13).
//   4. replica selftest— the planted stale-read bug armed; the
//                        linearizability oracle must catch it and its
//                        token must replay failing.
//
// Exit status is 0 only if the sweeps are clean AND both self-tests
// caught their planted bug.  Flags:
//   --smoke            CI budget: 10 seeds/universe instead of 100
//   --seeds=N          explicit seed count
//   --first-seed=N     start of the seed range (default 1)
//   --threads=N        host threads for the sweeps (0 = all cores);
//                      every phase prints its order-sensitive sweep
//                      digest, which is identical for any N
//   --skip-selftest    the two sweeps only (phases 1 and 3)
//   --repro-out=FILE   append repro-token JSON lines for every failure
//   --replay=TOKEN     run ONE universe from a repro token and report
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/explorer.hpp"

namespace {

std::FILE* g_repro = nullptr;

void report_failure(const char* phase, const check::FailureReport& f) {
  std::printf("{\"phase\":\"%s\",\"event\":\"failure\",\"token\":%s}\n", phase,
              f.token().c_str());
  std::printf("  %s\n", f.verdict.failure.c_str());
  if (g_repro != nullptr) {
    std::fprintf(g_repro, "%s\n", f.token().c_str());
  }
}

}  // namespace

namespace {

// --replay=TOKEN: re-run one universe from a repro token, print the
// verdict (with the reference model's causal context on divergence).
// Exit 0 iff the run conforms — so CI can also assert a token FAILS
// with `! check_explorer --replay=...`.
int replay(const std::string& token) {
  const auto cfg = check::parse_token(token);
  if (!cfg.has_value()) {
    std::fprintf(stderr, "unparseable repro token: %s\n", token.c_str());
    return 2;
  }
  const check::RunVerdict v = check::run_one(*cfg);
  std::printf("{\"phase\":\"replay\",\"token\":%s,\"ok\":%d}\n",
              check::to_json(*cfg).c_str(), v.ok ? 1 : 0);
  if (!v.ok) {
    // The failure string already embeds the divergence render (with its
    // causal context) when the reference model objected.
    std::printf("%s\n", v.failure.c_str());
  }
  return v.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 100;
  std::uint64_t first_seed = 1;
  unsigned threads = 1;
  bool selftest = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--replay=", 0) == 0) {
      return replay(arg.substr(9));
    }
    if (arg == "--smoke") {
      seeds = 10;
    } else if (arg.rfind("--seeds=", 0) == 0) {
      seeds = std::strtoull(arg.c_str() + 8, nullptr, 10);
    } else if (arg.rfind("--first-seed=", 0) == 0) {
      first_seed = std::strtoull(arg.c_str() + 13, nullptr, 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<unsigned>(
          std::strtoul(arg.c_str() + 10, nullptr, 10));
    } else if (arg == "--skip-selftest") {
      selftest = false;
    } else if (arg.rfind("--repro-out=", 0) == 0) {
      g_repro = std::fopen(arg.c_str() + 12, "w");
      if (g_repro == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", arg.c_str() + 12);
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  bool ok = true;

  // ---- phase 1: the conformance sweep --------------------------------
  check::ExploreOptions sweep;
  sweep.seeds = seeds;
  sweep.first_seed = first_seed;
  sweep.threads = threads;
  sweep.plans = {check::PlanSpec::kNone, check::PlanSpec::kAckStorm,
                 check::PlanSpec::kBothDark};
  const check::ExploreResult swept = check::explore(sweep);
  std::printf(
      "{\"phase\":\"sweep\",\"runs\":%llu,\"shrink_runs\":%llu,"
      "\"failures\":%zu,\"digest\":\"%016llx\"}\n",
      static_cast<unsigned long long>(swept.runs),
      static_cast<unsigned long long>(swept.shrink_runs),
      swept.failures.size(),
      static_cast<unsigned long long>(swept.sweep_digest));
  for (const check::FailureReport& f : swept.failures) {
    report_failure("sweep", f);
  }
  if (!swept.failures.empty()) ok = false;

  // ---- phase 2: planted-bug self-test --------------------------------
  if (selftest) {
    check::ExploreOptions bug;
    bug.substrates = {load::Substrate::kCharlotte};
    bug.seeds = seeds < 4 ? seeds : 4;  // one caught bug is enough
    bug.first_seed = first_seed;
    bug.threads = threads;
    bug.plans = {check::PlanSpec::kAckStorm};
    bug.inject_reack_bug = true;
    const check::ExploreResult caught = check::explore(bug);
    const bool all_caught = caught.failures.size() ==
                            static_cast<std::size_t>(caught.runs);
    std::printf(
        "{\"phase\":\"selftest\",\"runs\":%llu,\"shrink_runs\":%llu,"
        "\"caught\":%zu,\"all_caught\":%d}\n",
        static_cast<unsigned long long>(caught.runs),
        static_cast<unsigned long long>(caught.shrink_runs),
        caught.failures.size(), all_caught ? 1 : 0);
    if (!all_caught) {
      std::printf("  planted re-ack bug escaped the checker\n");
      ok = false;
    } else {
      // The minimized token must replay to the same failure: print the
      // first one as the repro a developer would be handed.
      const check::FailureReport& f = caught.failures.front();
      const auto parsed = check::parse_token(f.token());
      const bool replays =
          parsed.has_value() && !check::run_one(*parsed).ok;
      std::printf(
          "{\"phase\":\"selftest\",\"event\":\"repro\",\"token\":%s,"
          "\"replays\":%d}\n",
          f.token().c_str(), replays ? 1 : 0);
      if (!replays) ok = false;
    }
  }

  // ---- phase 3: replica sweep ----------------------------------------
  check::ExploreOptions rep;
  rep.workload = check::Workload::kReplica;
  rep.seeds = seeds;
  rep.first_seed = first_seed;
  rep.threads = threads;
  rep.plans = {check::PlanSpec::kNone, check::PlanSpec::kPrimaryCrash,
               check::PlanSpec::kPrimaryBounce, check::PlanSpec::kBackupBounce};
  const check::ExploreResult rep_swept = check::explore(rep);
  std::printf(
      "{\"phase\":\"replica-sweep\",\"runs\":%llu,\"shrink_runs\":%llu,"
      "\"failures\":%zu,\"digest\":\"%016llx\"}\n",
      static_cast<unsigned long long>(rep_swept.runs),
      static_cast<unsigned long long>(rep_swept.shrink_runs),
      rep_swept.failures.size(),
      static_cast<unsigned long long>(rep_swept.sweep_digest));
  for (const check::FailureReport& f : rep_swept.failures) {
    report_failure("replica-sweep", f);
  }
  if (!rep_swept.failures.empty()) ok = false;

  // ---- phase 4: planted stale-read self-test -------------------------
  if (selftest) {
    check::ExploreOptions stale;
    stale.workload = check::Workload::kReplica;
    stale.seeds = seeds < 4 ? seeds : 4;
    stale.first_seed = first_seed;
    stale.threads = threads;
    stale.plans = {check::PlanSpec::kNone};
    stale.inject_stale_bug = true;
    const check::ExploreResult caught = check::explore(stale);
    const bool all_caught = caught.failures.size() ==
                            static_cast<std::size_t>(caught.runs);
    std::printf(
        "{\"phase\":\"replica-selftest\",\"runs\":%llu,\"shrink_runs\":%llu,"
        "\"caught\":%zu,\"all_caught\":%d}\n",
        static_cast<unsigned long long>(caught.runs),
        static_cast<unsigned long long>(caught.shrink_runs),
        caught.failures.size(), all_caught ? 1 : 0);
    if (!all_caught) {
      std::printf("  planted stale-read bug escaped the oracle\n");
      ok = false;
    } else {
      const check::FailureReport& f = caught.failures.front();
      const auto parsed = check::parse_token(f.token());
      const bool replays =
          parsed.has_value() && !check::run_one(*parsed).ok;
      std::printf(
          "{\"phase\":\"replica-selftest\",\"event\":\"repro\",\"token\":%s,"
          "\"replays\":%d}\n",
          f.token().c_str(), replays ? 1 : 0);
      if (!replays) ok = false;
    }
  }

  if (g_repro != nullptr) std::fclose(g_repro);
  std::printf("check_explorer: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

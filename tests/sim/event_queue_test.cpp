// Property tests pinning the event queue's order.
//
// The engine's wheel + overflow heap (engine.cpp) must pop events in
// exactly the order the historical single binary heap did: ascending
// (time, key, seq), where key is the tie-break policy's function of
// seq.  The oracle here IS that old comparator — a std::priority_queue
// over (at, key, seq) — driven through the same scripted universe as a
// real Engine: every fired event runs a pure function of its id that
// may schedule children (so sequence numbers stay in lockstep) or
// cancel an earlier timer.  The script stresses every structural edge
// of the new queue: same-instant bursts, zero delays, events landing
// exactly on bucket boundaries, far-future events that overflow to the
// heap, single buckets spilling past the chain threshold, and
// cancellation storms.  A sliced variant drives the engine through
// run_until windows and, between them, pushes and cancels from outside
// any callback, which is the only place the engine's pop cache (the
// located next event) outlives a push.  Any divergence — a single swap
// anywhere in the fire order — shows up as a mismatched id sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace sim {
namespace {

// Mirrors engine.cpp's splitmix64 so the oracle can reproduce tie keys.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t oracle_tie_key(const TiePolicy& p, std::uint64_t seq) {
  if (p.kind == TieBreak::kFifo || seq >= p.horizon) return seq;
  const std::uint64_t h = splitmix64(p.seed ^ seq);
  if (p.kind == TieBreak::kSeededPermutation) return h;
  return (h & 3) == 0 ? h : seq;  // kPriorityFuzz
}

// ---- the scripted universe ---------------------------------------------
// Everything an event does is a pure function of (workload seed, id), so
// the Engine and the oracle walk identical universes as long as they
// fire the same events in the same order.

constexpr int kInitialEvents = 160;
constexpr int kSpawnCap = 3000;   // total events per run stays bounded
constexpr std::uint64_t kBucketNs = 1024;  // engine wheel bucket width

std::uint64_t h_of(std::uint64_t workload_seed, std::uint64_t id) {
  return splitmix64(workload_seed * 0x9e3779b97f4a7c15ULL + id);
}

// Delay classes chosen to hit the queue's structural edges.
Duration delay_for(std::uint64_t workload_seed, std::uint64_t id) {
  const std::uint64_t h = h_of(workload_seed, id);
  switch (h % 8) {
    case 0: return 0;  // same-instant with the scheduler
    case 1: return usec(5);  // heavy pile-up: one bucket spills its chain
    case 2: return static_cast<Duration>(kBucketNs * ((h >> 8) % 6));
      // exact bucket boundaries, including 0
    case 3: return msec(8) + static_cast<Duration>((h >> 8) % 100000);
      // far future: lands in the overflow heap (window is ~4.19ms)
    case 4: return usec(2) + static_cast<Duration>((h >> 8) % 3);
      // sub-bucket jitter: distinct times inside one bucket
    default: return static_cast<Duration>((h >> 8) % (2 * 1000 * 1000));
      // anywhere in a 2ms spread
  }
}

bool is_cancellable(std::uint64_t workload_seed, std::uint64_t id) {
  return h_of(workload_seed, id) % 16 == 5;
}

bool cancels_one(std::uint64_t workload_seed, std::uint64_t id) {
  return h_of(workload_seed, id) % 16 == 6;
}

int children_for(std::uint64_t workload_seed, std::uint64_t id) {
  const std::uint64_t h = h_of(workload_seed, id) >> 32;
  return static_cast<int>(h % 3);  // 0..2 children per fired event
}

// ---- sliced runs: pushes and cancels between run_until windows ---------
// Between windows the oracle, whose next live event is the engine's
// cached pop candidate, scripts what the caller does: an event earlier
// than the candidate (it retargets the cache), a later one in the
// candidate's bucket (head-inserted in front of it), one beyond the
// wheel window, and on odd slices a cancel of the candidate.  Injected
// events are inert when they fire; injection stops after kInjectSlices
// so the run still drains.

constexpr Duration kSlice = usec(300);
constexpr std::uint64_t kInjectSlices = 256;
constexpr std::uint64_t kInjectedBase = std::uint64_t{1} << 40;  // their ids

struct Op {
  bool cancel = false;
  Time at = 0;           // schedule: fire time
  std::uint64_t id = 0;  // schedule: the new event; cancel: its target
};
using Script = std::vector<std::vector<Op>>;  // one op list per slice

// ---- the oracle: the historical comparator over (at, key, seq) ---------

struct OracleEvent {
  Time at = 0;
  std::uint64_t key = 0;
  std::uint64_t seq = 0;
  std::uint64_t id = 0;
};
struct OracleLater {
  bool operator()(const OracleEvent& a, const OracleEvent& b) const {
    if (a.at != b.at) return a.at > b.at;
    if (a.key != b.key) return a.key > b.key;
    return a.seq > b.seq;
  }
};

// With `script` null, runs to completion; otherwise runs in kSlice
// windows and records into `script` what the caller injects after each.
std::vector<std::uint64_t> oracle_run(std::uint64_t workload_seed,
                                      TiePolicy policy,
                                      Script* script = nullptr) {
  std::priority_queue<OracleEvent, std::vector<OracleEvent>, OracleLater> q;
  std::unordered_set<std::uint64_t> cancelled;
  std::vector<std::uint64_t> cancellable;  // ids, cancelled oldest-first
  std::size_t next_cancel = 0;
  std::vector<std::uint64_t> fired;
  Time now = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t next_id = 0;
  std::uint64_t spawned = 0;

  auto push_at = [&](Time at, std::uint64_t id) {
    q.push({at, oracle_tie_key(policy, next_seq), next_seq, id});
    ++next_seq;
  };
  auto push = [&](std::uint64_t id) {
    push_at(now + delay_for(workload_seed, id), id);
    if (is_cancellable(workload_seed, id)) cancellable.push_back(id);
  };
  // Fires every live event due by `deadline`; leaves the next live
  // event, if any, on top.
  auto run_until = [&](Time deadline) {
    while (!q.empty()) {
      const OracleEvent ev = q.top();
      if (cancelled.count(ev.id) != 0) {
        q.pop();
        continue;
      }
      if (ev.at > deadline) return;
      q.pop();
      now = ev.at;
      fired.push_back(ev.id);
      if (ev.id >= kInjectedBase) continue;
      if (cancels_one(workload_seed, ev.id) &&
          next_cancel < cancellable.size()) {
        cancelled.insert(cancellable[next_cancel++]);
      }
      const int kids = children_for(workload_seed, ev.id);
      for (int k = 0; k < kids && spawned < kSpawnCap; ++k, ++spawned) {
        push(next_id++);
      }
    }
  };

  for (int i = 0; i < kInitialEvents; ++i) push(next_id++);
  if (script == nullptr) {
    run_until(std::numeric_limits<Time>::max());
    return fired;
  }
  std::uint64_t next_injected = kInjectedBase;
  for (Time deadline = kSlice;; deadline += kSlice) {
    run_until(deadline);
    if (q.empty()) break;
    const std::uint64_t k = script->size();
    if (k == kInjectSlices) continue;
    std::vector<Op>& ops = script->emplace_back();
    auto inject = [&](Time at) {
      ops.push_back({false, at, next_injected});
      push_at(at, next_injected);
      return next_injected++;
    };
    Time cand_at = q.top().at;
    std::uint64_t cand_id = q.top().id;
    if (k % 3 == 0) {
      cand_id = inject(deadline);  // now <= deadline < the old candidate
      cand_at = deadline;
    }
    const bool same_bucket = (cand_at + 1) / static_cast<Time>(kBucketNs) ==
                             cand_at / static_cast<Time>(kBucketNs);
    inject(same_bucket ? cand_at + 1 : cand_at);
    inject(deadline + msec(5) + static_cast<Duration>(k % 7 * kBucketNs));
    if (k % 2 == 1 && (cand_id >= kInjectedBase ||
                       is_cancellable(workload_seed, cand_id))) {
      ops.push_back({true, 0, cand_id});
      cancelled.insert(cand_id);
    }
  }
  return fired;
}

// ---- the engine, walking the same universe -----------------------------

std::vector<std::uint64_t> engine_run(std::uint64_t workload_seed,
                                      TiePolicy policy,
                                      const Script* script = nullptr) {
  Engine e;
  e.set_tie_policy(policy);
  struct State {
    Engine* e = nullptr;
    std::uint64_t workload_seed = 0;
    std::vector<std::uint64_t> fired;
    std::vector<TimerHandle> cancellable;
    std::unordered_map<std::uint64_t, TimerHandle> by_id;
    std::size_t next_cancel = 0;
    std::uint64_t next_id = 0;
    std::uint64_t spawned = 0;
  } st;
  st.e = &e;
  st.workload_seed = workload_seed;

  struct Fire {
    State* st;
    std::uint64_t id;
    void operator()() const {
      st->fired.push_back(id);
      if (id >= kInjectedBase) return;
      if (cancels_one(st->workload_seed, id) &&
          st->next_cancel < st->cancellable.size()) {
        st->cancellable[st->next_cancel++].cancel();
      }
      const int kids = children_for(st->workload_seed, id);
      for (int k = 0; k < kids && st->spawned < kSpawnCap; ++k, ++st->spawned) {
        push(st, st->next_id++);
      }
    }
    static void push(State* st, std::uint64_t id) {
      const Duration d = delay_for(st->workload_seed, id);
      if (is_cancellable(st->workload_seed, id)) {
        const TimerHandle h = st->e->schedule_cancellable(d, Fire{st, id});
        st->cancellable.push_back(h);
        st->by_id[id] = h;
      } else {
        st->e->schedule(d, Fire{st, id});
      }
    }
  };

  for (int i = 0; i < kInitialEvents; ++i) Fire::push(&st, st.next_id++);
  if (script == nullptr) {
    e.run();
    return st.fired;
  }
  Time deadline = kSlice;
  for (std::size_t k = 0; !e.run_until(deadline); ++k, deadline += kSlice) {
    if (k >= script->size()) continue;
    for (const Op& op : (*script)[k]) {
      if (op.cancel) {
        st.by_id.at(op.id).cancel();
      } else {
        st.by_id[op.id] =
            e.schedule_cancellable(op.at - e.now(), Fire{&st, op.id});
      }
    }
  }
  return st.fired;
}

class EventQueueOrder : public ::testing::TestWithParam<TieBreak> {};

TEST_P(EventQueueOrder, MatchesHistoricalComparatorBitForBit) {
  for (std::uint64_t workload_seed = 1; workload_seed <= 8; ++workload_seed) {
    TiePolicy policy;
    policy.kind = GetParam();
    policy.seed = workload_seed * 0x2545f4914f6cdd1dULL;
    const auto expect = oracle_run(workload_seed, policy);
    const auto got = engine_run(workload_seed, policy);
    ASSERT_GT(expect.size(), static_cast<std::size_t>(kInitialEvents));
    ASSERT_EQ(got, expect) << "policy " << to_string(policy.kind)
                           << " workload seed " << workload_seed;
  }
}

TEST_P(EventQueueOrder, MatchesUnderAShrinkerHorizon) {
  // The shrinker lowers TiePolicy::horizon to re-FIFO a suffix of the
  // schedule; key computation straddles the boundary, so the wheel and
  // the oracle must agree there too.
  for (std::uint64_t horizon : {std::uint64_t{0}, std::uint64_t{64},
                                std::uint64_t{777}}) {
    TiePolicy policy;
    policy.kind = GetParam();
    policy.seed = 0xfeedfacecafebeefULL;
    policy.horizon = horizon;
    const auto expect = oracle_run(3, policy);
    const auto got = engine_run(3, policy);
    ASSERT_EQ(got, expect) << "policy " << to_string(policy.kind)
                           << " horizon " << horizon;
  }
}

TEST_P(EventQueueOrder, MatchesWhenCallersPushAndCancelBetweenSlices) {
  for (std::uint64_t workload_seed = 1; workload_seed <= 4; ++workload_seed) {
    TiePolicy policy;
    policy.kind = GetParam();
    policy.seed = workload_seed * 0x2545f4914f6cdd1dULL;
    Script script;
    const auto expect = oracle_run(workload_seed, policy, &script);
    const auto got = engine_run(workload_seed, policy, &script);
    ASSERT_EQ(script.size(), kInjectSlices);
    ASSERT_EQ(got, expect) << "policy " << to_string(policy.kind)
                           << " workload seed " << workload_seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EventQueueOrder,
                         ::testing::Values(TieBreak::kFifo,
                                           TieBreak::kSeededPermutation,
                                           TieBreak::kPriorityFuzz),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---- cancellation storms ------------------------------------------------

TEST(EventQueueCancellation, StormKeepsCancelledPendingBounded) {
  // A retransmit-heavy run cancels timers by the thousand.  Dead events
  // must be reclaimed eagerly (compaction), not carried to fire time:
  // the population of cancelled-but-queued events stays bounded by the
  // live population, never growing with the total cancel count.
  Engine e;
  std::vector<TimerHandle> handles;
  std::size_t worst = 0;
  int fired = 0;
  int kept = 0;
  for (int round = 0; round < 200; ++round) {
    handles.clear();
    for (int i = 0; i < 100; ++i) {
      handles.push_back(e.schedule_cancellable(
          msec(10) + usec(i), [&fired] { ++fired; }));
    }
    // Cancel 99 of 100; one survivor per round keeps live events queued.
    for (int i = 0; i < 100; ++i) {
      if (i == 57) continue;
      handles[static_cast<std::size_t>(i)].cancel();
    }
    ++kept;
    worst = std::max(worst, e.cancelled_pending());
    // The reclamation invariant from Engine::note_cancelled: compaction
    // fires before the dead ever outnumber the live by more than the
    // hysteresis threshold.
    ASSERT_TRUE(e.cancelled_pending() < 64 ||
                2 * e.cancelled_pending() < e.queue_size() + 2)
        << "round " << round << ": " << e.cancelled_pending() << " dead of "
        << e.queue_size() << " queued";
  }
  // 19800 cancels happened; the dead population never approached that.
  // From the invariant, dead < live + 100, and live tops out at 300.
  EXPECT_LT(worst, 400u);
  e.run();
  EXPECT_EQ(fired, kept);
  EXPECT_EQ(e.cancelled_pending(), 0u);
  EXPECT_EQ(e.queue_size(), 0u);
}

// ---- regressions: the pop cache, stale handles and drain-vs-stop --------

TEST(EnginePopCache, LaterPushInFrontOfTheCandidateKeepsBoth) {
  // run_until() leaves the 5000 ns event cached as the pop candidate,
  // alone at the head of its bucket.  The 5001 ns event lands in the
  // same bucket and is head-inserted in front of it, so the cache must
  // learn its new chain predecessor.  Regression guard: without that,
  // taking the candidate unlinked the new event with it, and the next
  // step() spun forever looking for an event no bucket held.  The step
  // budget bounds a cache that misplaces events; the test's ctest
  // TIMEOUT bounds one that hangs.
  Engine e;
  std::vector<int> fired;
  e.schedule(nsec(5000), [&] { fired.push_back(1); });
  EXPECT_FALSE(e.run_until(nsec(1000)));
  e.schedule_at(nsec(5001), [&] { fired.push_back(2); });
  int steps = 0;
  while (steps < 4 && e.step()) ++steps;
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.queue_size(), 0u);
}

TEST(EngineShutdown, ShutdownInvalidatesPendingHandles) {
  // Regression: pending() used to keep answering true after shutdown()
  // dropped the event queue — the handle outlived the event it named.
  Engine e;
  TimerHandle t = e.schedule_cancellable(msec(1), [] {});
  ASSERT_TRUE(t.pending());
  e.shutdown();
  EXPECT_FALSE(t.pending());
  t.cancel();  // must be harmless on a dead engine
  EXPECT_FALSE(t.pending());
  EXPECT_TRUE(e.is_shut_down());
}

TEST(EngineRunUntil, DrainedSameIterationAsStopReportsDrained) {
  // Regression: when the final event both drained the queue and called
  // stop(), run_until() reported false ("stopped") even though the
  // queue was empty.  Drained is authoritative: callers poll the return
  // value to decide whether more work remains.
  Engine e;
  int fired = 0;
  e.schedule(usec(1), [&] {
    ++fired;
    e.stop();
  });
  EXPECT_TRUE(e.run_until(usec(10)));
  EXPECT_EQ(fired, 1);

  // With work left behind, stop still wins and reports unfinished.
  e.schedule(usec(1), [&] {
    ++fired;
    e.stop();
  });
  e.schedule(usec(2), [&] { ++fired; });
  EXPECT_FALSE(e.run_until(usec(10)));
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(e.run_until(usec(10)));
  EXPECT_EQ(fired, 3);
}

}  // namespace
}  // namespace sim

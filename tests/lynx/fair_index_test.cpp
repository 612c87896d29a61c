// FairIndex against the linear scan it replaced.
//
// Reference::pick below is the round-robin walk receive() made before
// the index existed, copied verbatim apart from names: a vector of
// handles in adoption order, erased on drop, and a cursor that a drop
// does not adjust.  Random sequences of adopt, drop, enable, disable,
// push, pop and destroy drive both, and every step must agree on the
// end served, the cursor, and the "all open request queues destroyed"
// verdict.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "lynx/fair_index.hpp"

namespace lynx {
namespace {

struct End {
  std::uint32_t fair_slot = 0;
  int handle = 0;
  bool open_requests = false;
  bool destroyed = false;
  int queued = 0;  // requests in the end's request queue
};

using Ends = std::map<int, End>;  // node-based: End addresses are stable

struct Reference {
  std::vector<int> fair_order_;
  std::size_t fair_cursor_ = 0;

  // The old receive() scan; returns the served handle, or 0 with
  // *all_dead set as receive() would have decided.
  int pick(Ends& ends, bool* all_dead) {
    const std::size_t n = fair_order_.size();
    bool any_open_alive = false;
    bool any_open = false;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t idx = (fair_cursor_ + k) % n;
      auto it = ends.find(fair_order_[idx]);
      End* ls = it == ends.end() ? nullptr : &it->second;
      if (ls == nullptr || !ls->open_requests) continue;
      any_open = true;
      if (!ls->destroyed) any_open_alive = true;
      if (ls->queued == 0) continue;
      fair_cursor_ = idx + 1;
      return ls->handle;
    }
    *all_dead = any_open && !any_open_alive;
    return 0;
  }
};

bool full_verdict(const Ends& ends) {
  bool any_open = false;
  bool any_open_alive = false;
  for (const auto& [h, e] : ends) {
    if (!e.open_requests) continue;
    any_open = true;
    if (!e.destroyed) any_open_alive = true;
  }
  return any_open && !any_open_alive;
}

void sync(FairIndex<End>& index, End& e) {
  index.update(e, e.open_requests, !e.destroyed,
               e.open_requests && e.queued > 0);
}

// A run of `ops` random operations drawn with weights for adopt, drop,
// enable, disable, push, pop and destroy.
struct Phase {
  std::vector<int> weights;
  int ops;
};

struct Outcome {
  std::size_t served = 0;
  std::size_t compactions = 0;
};

Outcome run_seed(std::uint64_t seed, const std::vector<Phase>& phases) {
  std::mt19937_64 rng(seed);
  Outcome out;
  Ends ends;
  Reference ref;
  FairIndex<End> index;
  int next_handle = 1;

  auto random_end = [&]() -> End* {
    if (ends.empty()) return nullptr;
    auto it = ends.begin();
    std::advance(it, static_cast<long>(rng() % ends.size()));
    return &it->second;
  };

  int step = 0;
  for (const Phase& phase : phases) {
    std::discrete_distribution<int> pick_op(phase.weights.begin(),
                                            phase.weights.end());
    for (int i = 0; i < phase.ops; ++i, ++step) {
      const int op = pick_op(rng);
      End* e = random_end();
      const std::size_t capacity = index.capacity();
      switch (op) {
        case 0: {  // adopt
          const int h = next_handle++;
          End& fresh = ends.emplace(h, End{}).first->second;
          fresh.handle = h;
          index.adopt(fresh);
          ref.fair_order_.push_back(h);
          break;
        }
        case 1:  // drop
          if (e == nullptr) break;
          index.drop(*e);
          std::erase(ref.fair_order_, e->handle);
          ends.erase(e->handle);
          if (index.capacity() < capacity) ++out.compactions;
          break;
        case 2:  // enable (refused on a destroyed end, as in the runtime)
          if (e == nullptr || e->destroyed) break;
          e->open_requests = true;
          sync(index, *e);
          break;
        case 3:  // disable
          if (e == nullptr) break;
          e->open_requests = false;
          sync(index, *e);
          break;
        case 4:  // push: a request arrives (only on a live end)
          if (e == nullptr || e->destroyed) break;
          ++e->queued;
          sync(index, *e);
          break;
        case 5: {  // pop: receive()
          bool ref_dead = false;
          const int want = ref.pick(ends, &ref_dead);
          End* got = index.next_ready();
          EXPECT_EQ(got == nullptr ? 0 : got->handle, want)
              << "seed " << seed << " step " << step;
          if (got == nullptr) {
            EXPECT_EQ(index.all_open_dead(), ref_dead)
                << "seed " << seed << " step " << step;
          } else {
            --got->queued;
            sync(index, *got);
            ++out.served;
          }
          break;
        }
        case 6:  // destroy: the peer destroyed the link
          if (e == nullptr) break;
          e->destroyed = true;
          sync(index, *e);
          break;
        default: break;
      }
      EXPECT_EQ(index.cursor(), ref.fair_cursor_)
          << "seed " << seed << " step " << step;
      EXPECT_EQ(index.all_open_dead(), full_verdict(ends))
          << "seed " << seed << " step " << step;
      EXPECT_EQ(index.size(), ends.size());
      EXPECT_LE(index.capacity(), 2 * index.size());
      if (::testing::Test::HasFailure()) return out;
    }
  }
  return out;
}

// Balanced churn: the order grows to tens of ends and shrinks again.
TEST(FairIndex, MatchesLinearScanUnderChurn) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const Outcome out = run_seed(seed, {{{6, 5, 6, 3, 12, 12, 2}, 4000}});
    if (HasFailure()) return;
    EXPECT_GT(out.served, 0u) << "seed " << seed;
  }
}

// Growth, then drop-heavy shrinking, twice: long runs of drops force
// compaction while the cursor sits far past the live count.
TEST(FairIndex, MatchesLinearScanAcrossCompaction) {
  const Phase grow{{14, 2, 8, 2, 10, 10, 6}, 1500};
  const Phase shrink{{2, 14, 6, 2, 10, 10, 2}, 1500};
  for (std::uint64_t seed = 1000; seed < 1100; ++seed) {
    const Outcome out = run_seed(seed, {grow, shrink, grow, shrink});
    if (HasFailure()) return;
    EXPECT_GT(out.served, 0u) << "seed " << seed;
    EXPECT_GT(out.compactions, 0u) << "seed " << seed;
  }
}

// Many peer-destroyed open ends: the verdict is exact and the one live
// end is still found.
TEST(FairIndex, DeadEndsAreCountedNotWalked) {
  Ends ends;
  FairIndex<End> index;
  for (int h = 1; h <= 5000; ++h) {
    End& e = ends.emplace(h, End{}).first->second;
    e.handle = h;
    index.adopt(e);
    e.open_requests = true;
    e.destroyed = h != 4321;
    sync(index, e);
  }
  EXPECT_FALSE(index.all_open_dead());
  EXPECT_EQ(index.next_ready(), nullptr);
  End& live = ends.at(4321);
  ++live.queued;
  sync(index, live);
  EXPECT_EQ(index.next_ready(), &live);
  EXPECT_EQ(index.cursor(), 4321u);
  live.destroyed = true;
  live.queued = 0;
  sync(index, live);
  EXPECT_TRUE(index.all_open_dead());
  // Closing a destroyed end's queue takes it out of the verdict too.
  for (auto& [h, e] : ends) {
    e.open_requests = false;
    sync(index, e);
  }
  EXPECT_FALSE(index.all_open_dead());
}

}  // namespace
}  // namespace lynx

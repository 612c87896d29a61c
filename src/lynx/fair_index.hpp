// The fair order of a process's link ends, as a rank/select index.
//
// A LYNX block point serves every open request queue round-robin, so
// that "no queue is ignored forever" (paper §2.1).  The order is one
// slot per adopted end, in adoption order; a cursor holds the position
// (in that order, counting only ends not yet dropped) just past the
// last end served.  receive() serves the first ready end at or after
// position `cursor % n` and wraps to the first ready end if none
// follows; a drop does not move the cursor.
//
// Walking that order costs O(ends ever held), and an end destroyed by
// its peer stays in it until its owner drops it.  Here two Fenwick
// counts over the slots -- *present* (not dropped) and *ready* (open
// with a queued request) -- turn the walk into a rank and two selects,
// O(log n), and two counters answer "every open queue is destroyed" in
// O(1).  The selection is position for position the one the walk made.
//
// Dropped slots are compacted away once they outnumber the live ones;
// compaction keeps the order, so ranks and the cursor are unchanged.
//
// T is the caller's per-end record.  It must have a public
// `std::uint32_t fair_slot`, which the index owns: it is the end's
// slot, rewritten on compaction.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace lynx {

template <class T>
class FairIndex {
 public:
  // Appends `item` at the end of the order: present, closed, not ready.
  void adopt(T& item) {
    item.fair_slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{&item, false, true, false});
    append(present_tree_, 1);
    append(ready_tree_, 0);
    ++present_;
  }

  // Records an end's current state: `open` (its request queue is open),
  // `alive` (not destroyed) and `ready` (open with a queued request).
  void update(T& item, bool open, bool alive, bool ready) {
    Slot& s = slot_of(item);
    count_out(s);
    if (s.ready != ready) add(ready_tree_, item.fair_slot, ready ? 1 : -1);
    s.open = open;
    s.alive = alive;
    s.ready = ready;
    count_in(s);
  }

  // Removes an end from the order.
  void drop(T& item) {
    Slot& s = slot_of(item);
    count_out(s);
    if (s.ready) add(ready_tree_, item.fair_slot, -1);
    add(present_tree_, item.fair_slot, -1);
    s = Slot{};
    --present_;
    if (2 * (slots_.size() - present_) > slots_.size()) compact();
  }

  // The next end to serve, advancing the cursor past it; null (and the
  // cursor untouched) when no end is ready.
  [[nodiscard]] T* next_ready() {
    if (ready_ == 0) return nullptr;
    const std::size_t start = select(present_tree_, cursor_ % present_);
    const std::size_t before = prefix(ready_tree_, start);
    const std::size_t slot =
        select(ready_tree_, before < ready_ ? before : 0);
    cursor_ = prefix(present_tree_, slot) + 1;
    return slots_[slot].item;
  }

  // True when some request queue is open and every open one belongs to
  // a destroyed end: a receive() could never be served.
  [[nodiscard]] bool all_open_dead() const {
    return open_ > 0 && open_alive_ == 0;
  }

  [[nodiscard]] std::size_t cursor() const { return cursor_; }
  [[nodiscard]] std::size_t size() const { return present_; }
  // Slots held, dropped ones included (bounded by twice size()).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    T* item = nullptr;  // null once dropped
    bool open = false;
    bool alive = false;
    bool ready = false;
  };
  // 1-based Fenwick arrays: tree[j] sums slots (j - lowbit(j), j].
  using Tree = std::vector<std::uint32_t>;

  Slot& slot_of(const T& item) {
    RELYNX_ASSERT(item.fair_slot < slots_.size());
    Slot& s = slots_[item.fair_slot];
    RELYNX_ASSERT(s.item == &item);
    return s;
  }

  void count_out(const Slot& s) {
    if (s.open) --open_;
    if (s.open && s.alive) --open_alive_;
    if (s.ready) --ready_;
  }
  void count_in(const Slot& s) {
    if (s.open) ++open_;
    if (s.open && s.alive) ++open_alive_;
    if (s.ready) ++ready_;
  }

  static std::size_t lowbit(std::size_t j) { return j & (~j + 1); }

  // Sum over slots [0, end).
  static std::size_t prefix(const Tree& t, std::size_t end) {
    std::size_t sum = 0;
    for (std::size_t j = end; j > 0; j -= lowbit(j)) sum += t[j];
    return sum;
  }

  static void add(Tree& t, std::size_t slot, int delta) {
    for (std::size_t j = slot + 1; j < t.size(); j += lowbit(j)) {
      t[j] += static_cast<std::uint32_t>(delta);  // -1 wraps: a decrement
    }
  }

  // Grows the tree by one slot holding `value`.
  static void append(Tree& t, std::uint32_t value) {
    if (t.empty()) t.push_back(0);
    const std::size_t j = t.size();
    const std::size_t covered = j - lowbit(j);
    t.push_back(static_cast<std::uint32_t>(value + prefix(t, j - 1) -
                                           prefix(t, covered)));
  }

  // The slot holding the k-th (0-based) counted unit; k < total.
  static std::size_t select(const Tree& t, std::size_t k) {
    const std::size_t n = t.size() - 1;
    std::size_t pos = 0;
    for (std::size_t step = std::bit_floor(n); step > 0; step >>= 1) {
      if (pos + step <= n && t[pos + step] <= k) {
        pos += step;
        k -= t[pos];
      }
    }
    return pos;
  }

  // Removes the dropped slots, keeping the order, and rebuilds both
  // trees in O(n).
  void compact() {
    std::vector<Slot> kept;
    kept.reserve(present_);
    for (const Slot& s : slots_) {
      if (s.item == nullptr) continue;
      s.item->fair_slot = static_cast<std::uint32_t>(kept.size());
      kept.push_back(s);
    }
    slots_ = std::move(kept);
    present_tree_.assign(slots_.size() + 1, 0);
    ready_tree_.assign(slots_.size() + 1, 0);
    for (std::size_t j = 1; j <= slots_.size(); ++j) {
      present_tree_[j] += 1;
      ready_tree_[j] += slots_[j - 1].ready ? 1 : 0;
      if (const std::size_t up = j + lowbit(j); up <= slots_.size()) {
        present_tree_[up] += present_tree_[j];
        ready_tree_[up] += ready_tree_[j];
      }
    }
  }

  std::vector<Slot> slots_;
  Tree present_tree_;
  Tree ready_tree_;
  std::size_t present_ = 0;
  std::size_t ready_ = 0;
  std::size_t open_ = 0;        // present ends with an open request queue
  std::size_t open_alive_ = 0;  // ... of which not destroyed
  std::size_t cursor_ = 0;
};

}  // namespace lynx

// Unit tests for WaitList / Gate / OneShot / Mailbox.
#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sim {
namespace {

Task<> wait_and_log(Engine* e, WaitList* list, std::vector<int>* log, int id) {
  (void)e;
  co_await list->wait();
  log->push_back(id);
}

TEST(WaitListTest, WakeOneIsFifo) {
  Engine e;
  WaitList list(e);
  std::vector<int> log;
  for (int i = 0; i < 3; ++i) {
    e.spawn(std::string("w").append(std::to_string(i)),
            wait_and_log(&e, &list, &log, i));
  }
  e.run();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(list.waiting(), 3u);
  list.wake_one();
  e.run();
  EXPECT_EQ(log, (std::vector<int>{0}));
  list.wake_all();
  e.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
}

Task<> gate_waiter(Engine* e, Gate* gate, int* after) {
  co_await gate->wait();
  *after = static_cast<int>(to_usec(e->now()));
}

Task<> gate_opener(Engine* e, Gate* gate) {
  co_await e->sleep(usec(40));
  gate->open();
}

TEST(GateTest, WaitersReleaseWhenOpened) {
  Engine e;
  Gate gate(e);
  int after = -1;
  e.spawn("waiter", gate_waiter(&e, &gate, &after));
  e.spawn("opener", gate_opener(&e, &gate));
  e.run();
  EXPECT_EQ(after, 40);
}

TEST(GateTest, WaitAfterOpenDoesNotBlock) {
  Engine e;
  Gate gate(e);
  gate.open();
  int after = -1;
  e.spawn("waiter", gate_waiter(&e, &gate, &after));
  e.run();
  EXPECT_EQ(after, 0);
}

Task<> oneshot_taker(OneShot<std::string>* slot, std::string* out) {
  *out = co_await slot->take();
}

Task<> oneshot_filler(Engine* e, OneShot<std::string>* slot) {
  co_await e->sleep(msec(1));
  slot->fulfill("done");
}

TEST(OneShotTest, TakeBlocksUntilFulfilled) {
  Engine e;
  OneShot<std::string> slot(e);
  std::string out;
  e.spawn("taker", oneshot_taker(&slot, &out));
  e.spawn("filler", oneshot_filler(&e, &slot));
  e.run();
  EXPECT_EQ(out, "done");
}

TEST(OneShotTest, FulfillBeforeTakeIsImmediate) {
  Engine e;
  OneShot<int> slot(e);
  slot.fulfill(7);
  EXPECT_TRUE(slot.fulfilled());
  int out = 0;
  e.spawn("taker",
          [](OneShot<int>* s, int* o) -> Task<> { *o = co_await s->take(); }(
              &slot, &out));
  e.run();
  EXPECT_EQ(out, 7);
}

Task<> producer(Engine* e, Mailbox<int>* box, int base, int n) {
  for (int i = 0; i < n; ++i) {
    co_await e->sleep(usec(3));
    box->put(base + i);
  }
}

Task<> consumer(Engine* e, Mailbox<int>* box, std::vector<int>* out, int n) {
  (void)e;
  for (int i = 0; i < n; ++i) out->push_back(co_await box->get());
}

TEST(MailboxTest, DeliversInFifoOrder) {
  Engine e;
  Mailbox<int> box(e);
  std::vector<int> out;
  e.spawn("consumer", consumer(&e, &box, &out, 5));
  e.spawn("producer", producer(&e, &box, 100, 5));
  e.run();
  EXPECT_EQ(out, (std::vector<int>{100, 101, 102, 103, 104}));
}

TEST(MailboxTest, TryGetDoesNotBlock) {
  Engine e;
  Mailbox<int> box(e);
  int v = 0;
  EXPECT_FALSE(box.try_get(v));
  box.put(9);
  EXPECT_TRUE(box.try_get(v));
  EXPECT_EQ(v, 9);
  EXPECT_TRUE(box.empty());
}

TEST(MailboxTest, TwoConsumersShareTheStream) {
  Engine e;
  Mailbox<int> box(e);
  std::vector<int> a, b;
  e.spawn("c1", consumer(&e, &box, &a, 3));
  e.spawn("c2", consumer(&e, &box, &b, 3));
  e.spawn("p", producer(&e, &box, 0, 6));
  e.run();
  EXPECT_EQ(a.size() + b.size(), 6u);
  std::vector<int> all;
  all.insert(all.end(), a.begin(), a.end());
  all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace sim

// Charlotte ack protocol regression pins (DESIGN.md §12): the
// cumulative-ack watermark, the counters that travel with a moved end,
// retransmit accounting on the re-ack race, and the piggyback/coalescing
// machinery.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "../support/co_check.hpp"
#include "charlotte/kernel.hpp"
#include "fault/faulty_medium.hpp"
#include "net/token_ring.hpp"
#include "sim/engine.hpp"

namespace charlotte {
namespace {

using net::NodeId;

Payload bytes(std::string s) { return Payload(s.begin(), s.end()); }
std::string text(const Payload& p) { return std::string(p.begin(), p.end()); }

// A medium that keeps a copy of the first data (Msg) frame leaving
// `watch_src` and can re-inject it later — the "duplicate delayed by the
// network for an arbitrarily long time" that windowed dedup schemes
// cannot screen.
class ReplayMedium final : public net::Medium {
 public:
  ReplayMedium(net::Medium& inner, NodeId watch_src)
      : inner_(&inner), watch_src_(watch_src) {}

  void attach(NodeId node, net::FrameHandler handler) override {
    inner_->attach(node, std::move(handler));
  }
  void send(net::Frame frame) override {
    stamp(frame);
    if (!captured_.has_value() && frame.src == watch_src_ &&
        std::holds_alternative<wire::Msg>(frame.as<wire::KernelFrame>())) {
      captured_ = frame;  // same id: a duplicate, not a new frame
    }
    inner_->send(std::move(frame));
  }
  void broadcast(net::Frame frame) override {
    stamp(frame);
    inner_->broadcast(std::move(frame));
  }
  [[nodiscard]] std::uint64_t frames_sent() const override {
    return inner_->frames_sent();
  }
  [[nodiscard]] std::uint64_t bytes_sent() const override {
    return inner_->bytes_sent();
  }

  void replay() {
    ASSERT_TRUE(captured_.has_value()) << "no Msg frame was captured";
    inner_->send(net::Frame(*captured_));
  }

 private:
  net::Medium* inner_;
  NodeId watch_src_;
  std::optional<net::Frame> captured_;
};

sim::Task<> send_one(Cluster* cl, Pid me, EndId end, std::string body,
                     std::vector<std::string>* log) {
  Kernel& k = cl->kernel_of(me);
  CO_CHECK_EQ(co_await k.send(me, end, bytes(body)), Status::kOk);
  Completion c = co_await k.wait(me);
  CO_CHECK_EQ(c.status, Status::kOk);
  CO_CHECK_EQ(c.direction, Direction::kSend);
  if (log != nullptr) log->push_back("sent:" + std::to_string(c.length));
}

sim::Task<> recv_one(Cluster* cl, Pid me, EndId end,
                     std::vector<std::string>* log) {
  Kernel& k = cl->kernel_of(me);
  CO_CHECK_EQ(co_await k.receive(me, end, 4096), Status::kOk);
  Completion c = co_await k.wait(me);
  CO_CHECK_EQ(c.status, Status::kOk);
  CO_CHECK_EQ(c.direction, Direction::kReceive);
  log->push_back("got:" + text(c.data));
}

sim::Task<> send_n(Cluster* cl, Pid me, EndId end, int n) {
  for (int i = 0; i < n; ++i) {
    co_await send_one(cl, me, end, std::string("m").append(std::to_string(i)),
                      nullptr);
  }
}

sim::Task<> recv_n(Cluster* cl, Pid me, EndId end, int n,
                   std::vector<std::string>* log) {
  for (int i = 0; i < n; ++i) {
    co_await recv_one(cl, me, end, log);
  }
}

// Satellite regression: the old dedup state was a 16-entry deque of
// recently delivered seqs, so a duplicate delayed past 16 subsequent
// deliveries fell out of the window and was serviced twice.  The
// watermark is windowless: the duplicate of delivery #1 is screened no
// matter how many deliveries intervene.  (This test delivers twenty
// messages between the original and its replayed copy; on the deque
// implementation the copy is delivered again and the final receive
// yields "m0" instead of "fresh".)
TEST(CharlotteAckProtocol, DelayedDuplicateBeyondOldWindowIsScreened) {
  sim::Engine e;
  net::TokenRing ring(e);
  ReplayMedium medium(ring, NodeId(0));
  Cluster cluster(e, 2, medium);

  Pid pa = cluster.create_process(NodeId(0));
  Pid pb = cluster.create_process(NodeId(1));
  LinkPair link = cluster.bootstrap_link(pa, pb);

  std::vector<std::string> log;
  constexpr int kRounds = 20;  // > the old window of 16
  e.spawn("send-20", send_n(&cluster, pa, link.end1, kRounds));
  e.spawn("recv-20", recv_n(&cluster, pb, link.end2, kRounds, &log));
  e.run();
  ASSERT_EQ(log.size(), static_cast<std::size_t>(kRounds));
  ASSERT_EQ(log.front(), "got:m0");

  // The network "finds" the long-lost duplicate of delivery #1, then a
  // genuinely new message follows.  Exactly one receive is posted: it
  // must yield the new message, not the duplicate.
  medium.replay();
  std::vector<std::string> tail;
  e.spawn("send-fresh", send_one(&cluster, pa, link.end1, "fresh", &tail));
  e.spawn("recv-fresh", recv_one(&cluster, pb, link.end2, &tail));
  e.run();

  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0], "got:fresh") << "replayed duplicate was re-delivered";
  EXPECT_EQ(tail[1], "sent:5");
  EXPECT_TRUE(e.process_failures().empty());
}

// The watermark must travel with a moved end.  Sequence numbers are
// per-end, so after an enclosure move the new kernel must resume the
// end's receive watermark where the old one stopped — otherwise a
// retransmit chasing the moved end (here: because the original ack was
// dropped) is delivered a second time at the new location.
TEST(CharlotteAckProtocol, WatermarkTravelsWithMovedEnd) {
  sim::Engine e;
  net::TokenRing ring(e);
  // Drop exactly the first MsgAck (node1 -> node0, in flight ~27 ms).
  fault::FaultyMedium fm(
      e, ring, 7,
      fault::Plan{}.drop_between(sim::msec(25), sim::msec(30), 1.0, NodeId(1),
                                 NodeId(0)));
  Costs costs;
  costs.send_retransmit_timeout = sim::msec(60);
  costs.max_send_attempts = 8;
  Cluster cluster(e, 3, fm, costs);

  Pid pa = cluster.create_process(NodeId(0));
  Pid pb = cluster.create_process(NodeId(1));
  Pid pc = cluster.create_process(NodeId(2));
  LinkPair ab = cluster.bootstrap_link(pa, pb);   // the link under test
  LinkPair carry = cluster.bootstrap_link(pb, pc);  // moves ab.end2 to pc

  std::vector<std::string> log_b;
  std::vector<std::string> log_c;
  std::vector<std::string> log_a;

  auto b_prog = [](Cluster* cl, Pid me, EndId recv_end, EndId carry_end,
                   std::vector<std::string>* log) -> sim::Task<> {
    co_await recv_one(cl, me, recv_end, log);
    // Hand the freshly used end to pc while its (dropped-ack) delivery
    // is still being retransmitted by pa.
    Kernel& k = cl->kernel_of(me);
    CO_CHECK_EQ(co_await k.send(me, carry_end, bytes("carry"), recv_end),
                Status::kOk);
    Completion c = co_await k.wait(me);
    CO_CHECK_EQ(c.status, Status::kOk);
    log->push_back("moved");
  };
  auto c_prog = [](Cluster* cl, Pid me, EndId carry_end,
                   std::vector<std::string>* log) -> sim::Task<> {
    Kernel& k = cl->kernel_of(me);
    CO_CHECK_EQ(co_await k.receive(me, carry_end, 4096), Status::kOk);
    Completion c = co_await k.wait(me);
    CO_CHECK_EQ(c.status, Status::kOk);
    CO_CHECK(c.enclosure.valid());
    log->push_back("adopted");
    // One receive on the adopted end: with the carried watermark it
    // yields pa's second message; without it, the chased retransmit of
    // the first message would be delivered again here.
    co_await recv_one(cl, me, c.enclosure, log);
  };
  auto a_prog = [](Cluster* cl, Pid me, EndId end,
                   std::vector<std::string>* log) -> sim::Task<> {
    co_await send_one(cl, me, end, "m1", log);
    co_await send_one(cl, me, end, "m2", log);
  };

  e.spawn("b", b_prog(&cluster, pb, ab.end2, carry.end1, &log_b));
  e.spawn("c", c_prog(&cluster, pc, carry.end2, &log_c));
  e.spawn("a", a_prog(&cluster, pa, ab.end1, &log_a));
  e.run();

  ASSERT_EQ(log_b.size(), 2u);
  EXPECT_EQ(log_b[0], "got:m1");
  EXPECT_EQ(log_b[1], "moved");
  ASSERT_EQ(log_c.size(), 2u);
  EXPECT_EQ(log_c[0], "adopted");
  EXPECT_EQ(log_c[1], "got:m2")
      << "retransmit of m1 was re-delivered at the end's new home";
  ASSERT_EQ(log_a.size(), 2u);  // both sends completed exactly once
  EXPECT_TRUE(e.process_failures().empty());
}

// Satellite bugfix: a re-ack racing a just-armed retransmit timer.  The
// first copy of the message is dropped; the timeout retransmit gets
// through and its ack races the next timer tick.  Under a fixed
// re-armed timeout the tick won and a spurious retransmit was billed to
// `retransmits_`; with backoff the doubled tick loses the race and the
// counter records exactly the one real retransmission.
TEST(CharlotteAckProtocol, ReackRaceDoesNotInflateRetransmitsUnderBackoff) {
  sim::Engine e;
  net::TokenRing ring(e);
  // The only Msg copy in [17, 19) ms is the original transmission
  // (at ~18 ms); the retransmit leaves at ~33 ms, after the window.
  fault::FaultyMedium fm(
      e, ring, 11,
      fault::Plan{}.drop_between(sim::msec(17), sim::msec(19), 1.0, NodeId(0),
                                 NodeId(1)));
  Costs costs;
  costs.send_retransmit_timeout = sim::msec(15);
  Cluster cluster(e, 2, fm, costs);

  Pid pa = cluster.create_process(NodeId(0));
  Pid pb = cluster.create_process(NodeId(1));
  LinkPair link = cluster.bootstrap_link(pa, pb);

  std::vector<std::string> log;
  e.spawn("recv", recv_one(&cluster, pb, link.end2, &log));
  e.spawn("send", send_one(&cluster, pa, link.end1, "m1", &log));
  e.run();
  EXPECT_TRUE(e.process_failures().empty());
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "got:m1");
  // Backoff doubles the second interval (15 -> 30 ms from the
  // retransmission): the ack wins and the stats stay honest.
  EXPECT_EQ(cluster.kernel(NodeId(0)).nack_retransmits(), 1u);
}

// Piggybacking: with kernel costs fast enough that reverse-direction
// data leaves within the coalescing window, owed acks ride on data
// frames.  16 deliveries with a standalone ack each would take 32
// frames; the pong side's acks (and the ping side's, except for the
// final exchange) piggyback, so the wire carries 24.
TEST(CharlotteAckProtocol, PiggybackedAcksSaveStandaloneFrames) {
  sim::Engine e;
  Costs costs;
  costs.call_overhead = sim::usec(200);
  costs.frame_processing = sim::usec(200);
  Cluster cluster(e, 2, net::TokenRingParams{}, costs);
  Pid pa = cluster.create_process(NodeId(0));
  Pid pb = cluster.create_process(NodeId(1));
  LinkPair link = cluster.bootstrap_link(pa, pb);

  auto ping = [](Cluster* cl, Pid me, EndId end,
                 std::vector<std::string>* lg) -> sim::Task<> {
    for (int i = 0; i < 8; ++i) {
      co_await send_one(cl, me, end, "ping", nullptr);
      co_await recv_one(cl, me, end, lg);
    }
  };
  auto pong = [](Cluster* cl, Pid me, EndId end,
                 std::vector<std::string>* lg) -> sim::Task<> {
    for (int i = 0; i < 8; ++i) {
      co_await recv_one(cl, me, end, lg);
      co_await send_one(cl, me, end, "pong", nullptr);
    }
  };
  std::vector<std::string> log;
  e.spawn("ping", ping(&cluster, pa, link.end1, &log));
  e.spawn("pong", pong(&cluster, pb, link.end2, &log));
  e.run();
  EXPECT_TRUE(e.process_failures().empty());

  std::vector<std::string> expected;
  for (int i = 0; i < 8; ++i) {
    expected.emplace_back("got:ping");
    expected.emplace_back("got:pong");
  }
  EXPECT_EQ(log, expected);
  EXPECT_EQ(cluster.total_frames(), 24u);
}

}  // namespace
}  // namespace charlotte

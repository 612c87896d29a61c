// The machinery lynx::Backend owns for every substrate: the lifecycle
// (start once, shutdown idempotent), the connect_any bootstrap, the
// shutdown drain, and what destroying a link does to a sibling thread's
// call on it.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/faulty_medium.hpp"
#include "load/world.hpp"
#include "lynx/connect.hpp"
#include "lynx/lynx.hpp"
#include "sim/engine.hpp"

namespace lynx {
namespace {

using load::Substrate;

// Coroutine bodies are free functions (CP.51).
sim::Task<> wire(Process* a, Process* b, LinkHandle* ae, LinkHandle* be) {
  auto [x, y] = co_await connect_any(*a, *b);
  *ae = x;
  *be = y;
}

sim::Task<> try_connect(Process* a, Process* b, std::string* outcome) {
  try {
    (void)co_await connect_any(*a, *b);
    *outcome = "ok";
  } catch (const LynxError& e) {
    *outcome = to_string(e.kind());
  }
}

// Serves one call: replies after `think`, noting when the request came
// in.  A reply onto a destroyed link is the caller's business, not a
// server failure.
sim::Task<> serve_one(ThreadCtx& ctx, LinkHandle link, sim::Duration think,
                      sim::Time* received_at) {
  ctx.enable_requests(link);
  Incoming in = co_await ctx.receive();
  if (received_at != nullptr) *received_at = ctx.engine().now();
  co_await ctx.delay(think);
  try {
    Message rep;
    co_await ctx.reply(in, std::move(rep));
  } catch (const LynxError&) {
  }
}

// "reply" or the error kind; empty while the call is still parked.
sim::Task<> call_once(ThreadCtx& ctx, LinkHandle link, std::string* outcome) {
  try {
    Message req = make_message("ping", {std::string("ping")});
    (void)co_await ctx.call(link, std::move(req));
    *outcome = "reply";
  } catch (const LynxError& e) {
    *outcome = to_string(e.kind());
  }
}

sim::Task<> destroy_after(ThreadCtx& ctx, LinkHandle link, sim::Duration t) {
  co_await ctx.delay(t);
  co_await ctx.destroy(link);
}

// A server (node 0) and a client (node 1), started and wired.
struct Pair {
  sim::Engine engine;
  load::World world;
  Process& server;
  Process& client;
  LinkHandle se;
  LinkHandle ce;

  explicit Pair(Substrate s, load::WorldParams params = {})
      : world(engine, s, std::move(params)),
        server(world.make_process("server", 0)),
        client(world.make_process("client", 1)) {
    server.start();
    client.start();
    engine.spawn("wire", wire(&server, &client, &se, &ce));
    engine.run();
  }
};

class BackendTest : public ::testing::TestWithParam<Substrate> {};

TEST_P(BackendTest, SecondStartDies) {
  Pair w(GetParam());
  EXPECT_DEATH(w.server.backend().start([](BackendEvent) {}),
               "backend started twice");
}

TEST_P(BackendTest, SecondShutdownIsANoOp) {
  Pair w(GetParam());
  w.server.terminate();  // the first shutdown
  w.server.backend().shutdown();
  w.engine.run();
  std::string outcome;
  w.client.spawn_thread("cli", [&w, &outcome](ThreadCtx& ctx) {
    return call_once(ctx, w.ce, &outcome);
  });
  w.engine.run_until(w.engine.now() + sim::sec(30));
  EXPECT_EQ(outcome, "link-destroyed");
  EXPECT_TRUE(w.engine.process_failures().empty());
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, BackendTest,
                         ::testing::ValuesIn(load::all_substrates()),
                         [](const auto& info) {
                           return std::string(load::to_string(info.param));
                         });

TEST(ConnectAnyPairs, EveryMismatchedPairIsInvalidLinkInBothOrders) {
  for (Substrate x : load::all_substrates()) {
    for (Substrate y : load::all_substrates()) {
      if (x == y) continue;
      sim::Engine engine;
      load::World wx(engine, x);
      load::World wy(engine, y);
      Process& a = wx.make_process("a", 0);
      Process& b = wy.make_process("b", 1);
      a.start();
      b.start();
      std::string outcome;
      engine.spawn("wire", try_connect(&a, &b, &outcome));
      engine.run();
      EXPECT_EQ(outcome, "invalid-link")
          << load::to_string(x) << " -> " << load::to_string(y);
    }
  }
}

// The shutdown drain, pinned by behaviour: the server replies and exits
// at once, and the reply's first frame is lost.  The early reply
// resolve has already released the server thread, so only the drain
// keeps the process alive until the retransmission lands.
class ShutdownDrainTest : public ::testing::TestWithParam<Substrate> {};

load::WorldParams lossy(std::optional<fault::Plan> plan) {
  load::WorldParams p;
  p.faults = std::move(plan);
  p.charlotte.send_retransmit_timeout = sim::msec(150);
  p.soda.ack_timeout = sim::msec(20);
  return p;
}

// Runs one call against a server that exits after replying; returns the
// caller's outcome and, through *received_at, when the server took the
// request.
std::string call_exiting_server(Substrate s, fault::Plan plan,
                                sim::Time* received_at,
                                std::uint64_t* drops) {
  Pair w(s, lossy(std::move(plan)));
  std::string outcome;
  w.server.spawn_thread("srv", [&w, received_at](ThreadCtx& ctx) {
    return serve_one(ctx, w.se, 0, received_at);
  });
  w.client.spawn_thread("cli", [&w, &outcome](ThreadCtx& ctx) {
    return call_once(ctx, w.ce, &outcome);
  });
  w.engine.run_until(w.engine.now() + sim::sec(60));
  *drops = w.world.faulty_medium()->injected_drops();
  return outcome;
}

TEST_P(ShutdownDrainTest, ReplyWhoseFirstFrameIsLostStillArrives) {
  // Lossless probe: when does the server start replying?
  sim::Time received_at = 0;
  std::uint64_t drops = 0;
  ASSERT_EQ(call_exiting_server(GetParam(), fault::Plan{}, &received_at,
                                &drops),
            "reply");
  ASSERT_GT(received_at, 0);
  // Same run, but every server->client frame of the reply's first
  // transmission is dropped; the retransmission timers outlast the
  // window.
  const sim::Duration window =
      GetParam() == Substrate::kCharlotte ? sim::msec(50) : sim::msec(8);
  fault::Plan plan;
  plan.drop_between(received_at, received_at + window, 1.0, net::NodeId(0),
                    net::NodeId(1));
  sim::Time again = 0;
  EXPECT_EQ(call_exiting_server(GetParam(), plan, &again, &drops), "reply");
  EXPECT_EQ(again, received_at);
  EXPECT_GT(drops, 0u);
}

INSTANTIATE_TEST_SUITE_P(LossySubstrates, ShutdownDrainTest,
                         ::testing::Values(Substrate::kCharlotte,
                                           Substrate::kSoda),
                         [](const auto& info) {
                           return std::string(load::to_string(info.param));
                         });

// A thread's call must not stay parked when a sibling thread destroys
// its link, wherever the call is: marshalling, sending, or awaiting the
// reply (the server thinks for 50 ms before answering).
struct SiblingCase {
  Substrate substrate;
  sim::Duration destroy_at;
};

void PrintTo(const SiblingCase& c, std::ostream* os) {
  *os << load::to_string(c.substrate) << "@" << c.destroy_at << "ns";
}

class SiblingDestroyTest : public ::testing::TestWithParam<SiblingCase> {};

TEST_P(SiblingDestroyTest, CallFailsWithLinkDestroyed) {
  Pair w(GetParam().substrate);
  std::string outcome;
  w.server.spawn_thread("srv", [&w](ThreadCtx& ctx) {
    return serve_one(ctx, w.se, sim::msec(50), nullptr);
  });
  w.client.spawn_thread("caller", [&w, &outcome](ThreadCtx& ctx) {
    return call_once(ctx, w.ce, &outcome);
  });
  const sim::Duration t = GetParam().destroy_at;
  w.client.spawn_thread("destroyer", [&w, t](ThreadCtx& ctx) {
    return destroy_after(ctx, w.ce, t);
  });
  w.engine.run_until(w.engine.now() + sim::sec(30));
  EXPECT_EQ(outcome, "link-destroyed");
}

std::vector<SiblingCase> sibling_cases() {
  std::vector<SiblingCase> out;
  for (Substrate s : load::all_substrates()) {
    for (sim::Duration t :
         {sim::usec(10), sim::usec(500), sim::msec(3), sim::msec(20)}) {
      out.push_back({s, t});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, SiblingDestroyTest,
                         ::testing::ValuesIn(sibling_cases()),
                         [](const auto& info) {
                           return std::string(load::to_string(
                                      info.param.substrate)) +
                                  "_at_" +
                                  std::to_string(info.param.destroy_at /
                                                 sim::usec(1)) +
                                  "us";
                         });

}  // namespace
}  // namespace lynx

// load::World's contract beyond what its migrated callers exercise:
// calibrated run-time costs per substrate, the fault plan as the only
// switch for the faulty medium and its invariant checker, the derived
// Chrysalis notice budget, and a safe teardown with RPCs parked.
#include "load/world.hpp"

#include <gtest/gtest.h>

#include "fault/invariant_checker.hpp"
#include "lynx/connect.hpp"

namespace load {
namespace {

sim::Task<> wire(lynx::Process* a, lynx::Process* b, lynx::LinkHandle* ae,
                 lynx::LinkHandle* be) {
  auto [x, y] = co_await lynx::connect_any(*a, *b);
  *ae = x;
  *be = y;
}

// Serves `n` echo calls; n < 0 receives one call and never replies.
sim::Task<> serve(lynx::ThreadCtx& ctx, lynx::LinkHandle link, int n) {
  ctx.enable_requests(link);
  if (n < 0) {
    (void)co_await ctx.receive();
    co_await ctx.delay(sim::sec(3600));
  }
  for (int i = 0; i < n; ++i) {
    lynx::Incoming in = co_await ctx.receive();
    lynx::Message rep;
    co_await ctx.reply(in, std::move(rep));
  }
}

sim::Task<> call(lynx::ThreadCtx& ctx, lynx::LinkHandle link, int* done) {
  lynx::Message req = lynx::make_message("ping", {});
  (void)co_await ctx.call(link, std::move(req));
  ++*done;
}

// A started server (node 0) and client (node 1) joined by one link, with
// the server answering `serves` calls (see serve) and the client making
// one call.  Runs the engine until `until`.
int run_one_call(sim::Engine& engine, World& world, int serves,
                 sim::Time until) {
  lynx::Process& server = world.make_process("server", 0);
  lynx::Process& client = world.make_process("client", 1);
  server.start();
  client.start();
  lynx::LinkHandle se;
  lynx::LinkHandle ce;
  engine.spawn("wire", wire(&server, &client, &se, &ce));
  engine.run();
  int done = 0;
  server.spawn_thread("srv", [se, serves](lynx::ThreadCtx& ctx) {
    return serve(ctx, se, serves);
  });
  client.spawn_thread("cli", [ce, &done](lynx::ThreadCtx& ctx) {
    return call(ctx, ce, &done);
  });
  engine.run_until(until);
  return done;
}

class WorldTest : public ::testing::TestWithParam<Substrate> {};

TEST_P(WorldTest, ProcessesGetTheirSubstratesCalibratedRuntimeCosts) {
  sim::Engine engine;
  World world(engine, GetParam());
  lynx::Process& p = world.make_process("p", 0);
  lynx::RuntimeCosts want;
  switch (GetParam()) {
    case Substrate::kCharlotte: want = lynx::vax_runtime_costs(); break;
    case Substrate::kSoda: want = lynx::pdp11_runtime_costs(); break;
    case Substrate::kChrysalis: want = lynx::mc68000_runtime_costs(); break;
  }
  EXPECT_EQ(p.costs().per_operation, want.per_operation);
  EXPECT_EQ(p.costs().per_byte, want.per_byte);
  EXPECT_EQ(p.backend().kernel_name(), to_string(GetParam()));
}

TEST_P(WorldTest, WithoutAPlanThereIsNoFaultyMedium) {
  sim::Engine engine;
  World world(engine, GetParam());
  EXPECT_EQ(world.faulty_medium(), nullptr);
  EXPECT_EQ(world.invariants(), nullptr);
  EXPECT_EQ(run_one_call(engine, world, 1, sim::sec(10)), 1);
  EXPECT_FALSE(world.invariant_violation().has_value());
  EXPECT_GT(world.wire_ops(), 0u);
}

TEST_P(WorldTest, APlanWrapsTheMediumAndTheCheckerSeesFrames) {
  sim::Engine engine;
  WorldParams p;
  p.faults = fault::Plan{};
  World world(engine, GetParam(), p);
  EXPECT_EQ(run_one_call(engine, world, 1, sim::sec(10)), 1);
  if (GetParam() == Substrate::kChrysalis) {
    // No medium to wrap: the plan is ignored.
    EXPECT_EQ(world.faulty_medium(), nullptr);
    EXPECT_EQ(world.invariants(), nullptr);
    return;
  }
  ASSERT_NE(world.faulty_medium(), nullptr);
  ASSERT_NE(world.invariants(), nullptr);
  EXPECT_GT(world.invariants()->deliveries_checked(), 0u);
  EXPECT_TRUE(world.invariants()->ok());
}

TEST_P(WorldTest, TeardownWithRpcsParkedMidFlightIsClean) {
  sim::Engine engine;
  {
    WorldParams p;
    if (GetParam() != Substrate::kChrysalis) p.faults = fault::Plan{};
    World world(engine, GetParam(), p);
    // The server takes the call and never answers: both threads are
    // parked when the world goes away.
    EXPECT_EQ(run_one_call(engine, world, -1, sim::sec(5)), 0);
    EXPECT_FALSE(engine.is_shut_down());
  }
  EXPECT_TRUE(engine.is_shut_down());
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, WorldTest,
                         ::testing::ValuesIn(all_substrates()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace load

// The §4.2 absolute fallback: freeze/unfreeze search.
//
// "Perhaps the simplest [fall-back mechanism] looks like this: every
//  process advertises a freeze name.  When C discovers its hint for L is
//  bad, it posts a SODA request on the freeze name of every process
//  currently in existence..."
//
// We force the fallback: the mover's cache capacity is zero (it forgets
// and un-advertises moved names immediately) and the broadcast medium
// drops everything (discover can never succeed).  Only the freeze
// search can find the link — or, once its holder's SODA process is
// gone, find that nobody holds it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../support/co_check.hpp"
#include "lynx/connect.hpp"
#include "lynx/runtime.hpp"
#include "lynx/soda_backend.hpp"
#include "sim/engine.hpp"

namespace lynx {
namespace {

using net::NodeId;

struct FreezeWorldResult {
  bool served = false;
  bool late_link_destroyed = false;  // the late call raised kLinkDestroyed
  std::uint64_t freezes = 0;
  std::uint64_t discover_failures = 0;
  std::uint64_t moved_redirects = 0;
};

// With `kill_holder`, B's SODA process is terminated at its kernel after
// the move and before C's late call, so no live process holds the end.
FreezeWorldResult run(double broadcast_drop, bool kill_holder) {
  sim::Engine engine;
  SodaDirectory directory;
  net::CsmaBusParams bus;
  bus.broadcast_drop_prob = broadcast_drop;
  soda::Network network(engine, 5, sim::Rng(31), bus);
  SodaBackendParams bp;
  bp.moved_cache_capacity = 0;  // forget moves instantly

  Process a(engine, "A", make_soda_backend(network, directory, NodeId(0), bp));
  Process b(engine, "B", make_soda_backend(network, directory, NodeId(1), bp));
  Process c(engine, "C", make_soda_backend(network, directory, NodeId(2), bp));
  a.start();
  b.start();
  c.start();

  LinkHandle ab_a, ab_b, l_a, l_c;
  engine.spawn("wire", [](Process* pa, Process* pb, Process* pc,
                          LinkHandle* o1, LinkHandle* o2, LinkHandle* o3,
                          LinkHandle* o4) -> sim::Task<> {
    auto [x1, y1] = co_await connect_any(*pa, *pb);
    *o1 = x1;
    *o2 = y1;
    auto [x2, y2] = co_await connect_any(*pa, *pc);
    *o3 = x2;
    *o4 = y2;
  }(&a, &b, &c, &ab_a, &ab_b, &l_a, &l_c));
  engine.run();

  // A ships its end of L to B, then forgets it (cache capacity 0).
  a.spawn_thread("ship", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle via, LinkHandle moving) -> sim::Task<> {
      Message req = make_message("take", {moving});
      (void)co_await cx.call(via, std::move(req));
      co_await cx.delay(sim::sec(20));
    }(ctx, ab_a, l_a);
  });
  static bool served_flag;
  served_flag = false;
  static bool late_destroyed_flag;
  late_destroyed_flag = false;
  b.spawn_thread("serve", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle via) -> sim::Task<> {
      cx.enable_requests(via);
      Incoming in = co_await cx.receive();
      LinkHandle got = std::get<LinkHandle>(in.msg.args.at(0));
      Message empty;
      co_await cx.reply(in, std::move(empty));
      cx.enable_requests(got);
      Incoming late = co_await cx.receive();
      served_flag = true;
      Message rep;
      co_await cx.reply(late, std::move(rep));
    }(ctx, ab_b);
  });
  c.spawn_thread("late", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle l) -> sim::Task<> {
      co_await cx.delay(sim::sec(1));  // move finishes & is forgotten
      try {
        Message req = make_message("late", {});
        (void)co_await cx.call(l, std::move(req));
      } catch (const LynxError& e) {
        late_destroyed_flag = e.kind() == ErrorKind::kLinkDestroyed;
      }
    }(ctx, l_c);
  });
  if (kill_holder) {
    const soda::Pid holder = dynamic_cast<SodaBackend&>(b.backend()).pid();
    engine.spawn("kill-holder",
                 [](sim::Engine* e, soda::Network* n,
                    soda::Pid p) -> sim::Task<> {
                   co_await e->sleep(sim::msec(500));  // after the move
                   n->terminate(p);
                 }(&engine, &network, holder));
  }
  engine.run_until(sim::sec(30));

  FreezeWorldResult r;
  r.served = served_flag;
  r.late_link_destroyed = late_destroyed_flag;
  const auto& st = dynamic_cast<SodaBackend&>(c.backend()).stats();
  r.freezes = st.freeze_searches;
  r.discover_failures = st.discover_failures;
  const auto& sa = dynamic_cast<SodaBackend&>(a.backend()).stats();
  r.moved_redirects = sa.moved_redirects;
  return r;
}

TEST(SodaFreeze, FreezeSearchFindsFullyForgottenLink) {
  // broadcast 100% lossy: discover can never work; cache is disabled;
  // only the freeze search can locate the moved end.
  FreezeWorldResult r = run(/*broadcast_drop=*/1.0, /*kill_holder=*/false);
  EXPECT_TRUE(r.served);
  EXPECT_FALSE(r.late_link_destroyed);
  EXPECT_GE(r.discover_failures, 1u);
  EXPECT_GE(r.freezes, 1u);
  EXPECT_EQ(r.moved_redirects, 0u);  // the cache really was disabled
}

TEST(SodaFreeze, WithoutFallbackLinkIsPresumedDestroyed) {
  // The freeze search runs but no live process holds the end: "A process
  // that is unable to find the far end of a link must assume it has been
  // destroyed."
  FreezeWorldResult r = run(/*broadcast_drop=*/1.0, /*kill_holder=*/true);
  EXPECT_FALSE(r.served);
  EXPECT_TRUE(r.late_link_destroyed);
  EXPECT_GE(r.discover_failures, 1u);
  EXPECT_GE(r.freezes, 1u);
}

TEST(SodaFreeze, DiscoverAloneSufficesWhenBroadcastWorks) {
  FreezeWorldResult r = run(/*broadcast_drop=*/0.0, /*kill_holder=*/false);
  EXPECT_TRUE(r.served);
  EXPECT_EQ(r.freezes, 0u);  // discover found it on the first try
}

}  // namespace
}  // namespace lynx

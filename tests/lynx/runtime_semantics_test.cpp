// Runtime-semantics tests (backend-independent rules from paper §2.1),
// run over the Chrysalis backend for speed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../support/co_check.hpp"
#include "lynx/chrysalis_backend.hpp"
#include "lynx/connect.hpp"
#include "lynx/runtime.hpp"
#include "sim/engine.hpp"

namespace lynx {
namespace {

using net::NodeId;

struct World {
  sim::Engine engine;
  chrysalis::Kernel kernel{engine};
  Process server{engine, "server", make_chrysalis_backend(kernel, NodeId(0))};
  Process client{engine, "client", make_chrysalis_backend(kernel, NodeId(1))};
  LinkHandle server_end;
  LinkHandle client_end;

  // Frames still parked at the end of a test unwind while the processes
  // they reference are alive.
  ~World() { engine.shutdown(); }

  void boot() {
    server.start();
    client.start();
    engine.spawn("connect", wire(this));
    engine.run();
  }
  static sim::Task<> wire(World* w) {
    auto [se, ce] = co_await connect_any(w->server, w->client);
    w->server_end = se;
    w->client_end = ce;
  }
};

// ---- typed operations -------------------------------------------------------

sim::Task<> bad_replier(ThreadCtx& ctx, LinkHandle link) {
  ctx.enable_requests(link);
  Incoming in = co_await ctx.receive();
  // Reply op is forced to match the request: the runtime rewrites it.
  Message rep;
  rep.op = "totally-wrong";
  co_await ctx.reply(in, std::move(rep));
}

TEST(LynxSemantics, ReplyOpAlwaysAnswersTheRequest) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("bad", [&](ThreadCtx& ctx) {
    return bad_replier(ctx, w.server_end);
  });
  w.client.spawn_thread("cli", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l,
              std::vector<std::string>* lg) -> sim::Task<> {
      Message req = make_message("compute", {});
      Message rep = co_await c.call(l, std::move(req));
      lg->push_back("op:" + rep.op);
    }(ctx, w.client_end, &log);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "op:compute");
}

TEST(LynxSemantics, UndeclaredOperationIsRejected) {
  World w;
  w.boot();
  w.server.declare_operation("read");
  w.server.declare_operation("write");
  std::vector<std::string> log;
  w.server.spawn_thread("srv", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l) -> sim::Task<> {
      c.enable_requests(l);
      Incoming in = co_await c.receive();  // only 'read' gets through
      CO_CHECK_EQ(in.msg.op, "read");
      Message rep;
      co_await c.reply(in, std::move(rep));
    }(ctx, w.server_end);
  });
  w.client.spawn_thread("cli", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l,
              std::vector<std::string>* lg) -> sim::Task<> {
      try {
        Message bad = make_message("format-disk", {});
        (void)co_await c.call(l, std::move(bad));
        lg->push_back("unexpected-success");
      } catch (const LynxError& e) {
        lg->push_back(std::string("rejected:") + to_string(e.kind()));
      }
      Message good = make_message("read", {});
      (void)co_await c.call(l, std::move(good));
      lg->push_back("read-ok");
    }(ctx, w.client_end, &log);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "rejected:operation-rejected");
  EXPECT_EQ(log[1], "read-ok");
}

// ---- enclosure restrictions (§2.1) ------------------------------------------

TEST(LynxSemantics, CannotEncloseCarrierEnd) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.client.spawn_thread("cli", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l,
              std::vector<std::string>* lg) -> sim::Task<> {
      try {
        Message req = make_message("take", {l});  // enclose the carrier!
        (void)co_await c.call(l, std::move(req));
        lg->push_back("unexpected-success");
      } catch (const LynxError& e) {
        lg->push_back(std::string("caught:") + to_string(e.kind()));
      }
    }(ctx, w.client_end, &log);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "caught:link-busy");
}

// "a process is not permitted to move a link ... on which it owes a
// reply for an already-received request"
sim::Task<> owing_server(ThreadCtx& ctx, LinkHandle front, LinkHandle other,
                         std::vector<std::string>* log) {
  ctx.enable_requests(front);
  Incoming in = co_await ctx.receive();  // we now owe a reply on `front`
  try {
    Message req = make_message("move-it", {front});
    (void)co_await ctx.call(other, std::move(req));
    log->push_back("unexpected-success");
  } catch (const LynxError& e) {
    log->push_back(std::string("caught:") + to_string(e.kind()));
  }
  Message rep;
  co_await ctx.reply(in, std::move(rep));
  log->push_back("replied");
}

TEST(LynxSemantics, CannotMoveEndWithOwedReply) {
  sim::Engine engine;
  chrysalis::Kernel kernel(engine);
  Process a(engine, "a", make_chrysalis_backend(kernel, NodeId(0)));
  Process b(engine, "b", make_chrysalis_backend(kernel, NodeId(1)));
  Process c(engine, "c", make_chrysalis_backend(kernel, NodeId(2)));
  a.start();
  b.start();
  c.start();
  LinkHandle ab_a, ab_b, ac_a, ac_c;
  engine.spawn("wire", [](Process* pa, Process* pb, Process* pc,
                          LinkHandle* o1, LinkHandle* o2, LinkHandle* o3,
                          LinkHandle* o4) -> sim::Task<> {
    auto [x1, y1] = co_await connect_any(*pa, *pb);
    *o1 = x1;
    *o2 = y1;
    auto [x2, y2] = co_await connect_any(*pa, *pc);
    *o3 = x2;
    *o4 = y2;
  }(&a, &b, &c, &ab_a, &ab_b, &ac_a, &ac_c));
  engine.run();

  std::vector<std::string> log;
  a.spawn_thread("owing", [&](ThreadCtx& ctx) {
    return owing_server(ctx, ab_a, ac_a, &log);
  });
  b.spawn_thread("caller", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle l,
              std::vector<std::string>* lg) -> sim::Task<> {
      Message req = make_message("op", {});
      (void)co_await cx.call(l, std::move(req));
      lg->push_back("caller-done");
    }(ctx, ab_b, &log);
  });
  c.spawn_thread("sink", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle l) -> sim::Task<> {
      cx.enable_requests(l);
      co_await cx.delay(sim::sec(1));
    }(ctx, ac_c);
  });
  engine.run();
  ASSERT_GE(log.size(), 3u);
  EXPECT_EQ(log[0], "caught:link-busy");
  EXPECT_EQ(log[1], "replied");
  EXPECT_EQ(log[2], "caller-done");
}

// ---- per-link call serialization ---------------------------------------------

// Two client threads call on the SAME link; stop-and-wait means the
// second call must queue behind the first — both complete, in order.
sim::Task<> numbered_caller(ThreadCtx& ctx, LinkHandle link, int id,
                            std::vector<int>* order) {
  Message req = make_message("op", {std::int64_t(id)});
  Message rep = co_await ctx.call(link, std::move(req));
  order->push_back(static_cast<int>(std::get<std::int64_t>(rep.args.at(0))));
}

TEST(LynxSemantics, CallsOnOneLinkSerialize) {
  World w;
  w.boot();
  std::vector<int> order;
  w.server.spawn_thread("srv", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l) -> sim::Task<> {
      c.enable_requests(l);
      for (int i = 0; i < 3; ++i) {
        Incoming in = co_await c.receive();
        Message rep;
        rep.args = in.msg.args;
        co_await c.reply(in, std::move(rep));
      }
    }(ctx, w.server_end);
  });
  for (int i = 0; i < 3; ++i) {
    w.client.spawn_thread("cli" + std::to_string(i), [&, i](ThreadCtx& ctx) {
      return numbered_caller(ctx, w.client_end, i, &order);
    });
  }
  w.engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(w.client.thread_failures().empty());
}

// ---- message ordering within a queue (§2.1) -----------------------------------

TEST(LynxSemantics, MessagesInOneQueueArriveInOrder) {
  World w;
  w.boot();
  std::vector<int> seen;
  w.server.spawn_thread("srv", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l, std::vector<int>* out) -> sim::Task<> {
      c.enable_requests(l);
      for (int i = 0; i < 10; ++i) {
        Incoming in = co_await c.receive();
        out->push_back(
            static_cast<int>(std::get<std::int64_t>(in.msg.args.at(0))));
        Message rep;
        co_await c.reply(in, std::move(rep));
      }
    }(ctx, w.server_end, &seen);
  });
  w.client.spawn_thread("cli", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l) -> sim::Task<> {
      for (int i = 0; i < 10; ++i) {
        Message req = make_message("op", {std::int64_t(i)});
        (void)co_await c.call(l, std::move(req));
      }
    }(ctx, w.client_end);
  });
  w.engine.run();
  std::vector<int> expect;
  for (int i = 0; i < 10; ++i) expect.push_back(i);
  EXPECT_EQ(seen, expect);
}

// ---- invalid handles ------------------------------------------------------------

TEST(LynxSemantics, InvalidHandleThrows) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.client.spawn_thread("cli", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, std::vector<std::string>* lg) -> sim::Task<> {
      try {
        Message req = make_message("x", {});
        (void)co_await c.call(LinkHandle(424242), std::move(req));
      } catch (const LynxError& e) {
        lg->push_back(std::string("call:") + to_string(e.kind()));
      }
      try {
        c.enable_requests(LinkHandle(424242));
      } catch (const LynxError& e) {
        lg->push_back(std::string("enable:") + to_string(e.kind()));
      }
    }(ctx, &log);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "call:invalid-link");
  EXPECT_EQ(log[1], "enable:invalid-link");
}

// ---- abort while blocked in receive ---------------------------------------------

TEST(LynxSemantics, AbortWakesBlockedReceiver) {
  World w;
  w.boot();
  std::vector<std::string> log;
  ThreadId tid = w.server.spawn_thread("blocked", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l,
              std::vector<std::string>* lg) -> sim::Task<> {
      c.enable_requests(l);
      try {
        (void)co_await c.receive();
        lg->push_back("unexpected-message");
      } catch (const LynxError& e) {
        lg->push_back(std::string("caught:") + to_string(e.kind()));
      }
    }(ctx, w.server_end, &log);
  });
  w.client.spawn_thread("idle", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c) -> sim::Task<> {
      co_await c.delay(sim::msec(100));
    }(ctx);
  });
  w.engine.schedule(sim::msec(20), [&, tid] { w.server.abort_thread(tid); });
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "caught:aborted");
}

// ---- a sibling destroying the end mid-operation -----------------------------
//
// receive() sleeps in its scatter and reply() in its gather with the end
// already chosen; a sibling thread may destroy and drop that end in the
// meantime.  Each sweep slides the sibling's destroy across those
// windows.  Reading the dropped end's state would be a use-after-free
// (which the ASan/UBSan build reports); instead the obligation stands
// and reply() feels kLinkDestroyed.

struct Race {
  sim::Time received = -1;  // receive() returned
  sim::Time dropped = -1;   // the sibling's destroy() returned
  std::string reply;        // how reply() ended
  std::string destroy;      // how the sibling's destroy() ended
};

sim::Task<> racing_server(ThreadCtx& c, LinkHandle l, Race* r) {
  c.enable_requests(l);
  Incoming in = co_await c.receive();
  r->received = c.engine().now();
  // Named, not a temporary: gcc 12 mishandles a temporary passed by
  // value to a coroutine called inside co_await when the callee throws.
  Message rep;
  try {
    co_await c.reply(in, std::move(rep));
    r->reply = "ok";
  } catch (const LynxError& e) {
    r->reply = to_string(e.kind());
  }
}

sim::Task<> sibling_destroyer(ThreadCtx& c, LinkHandle l, sim::Duration at,
                              Race* r) {
  co_await c.delay(at);
  try {
    co_await c.destroy(l);
    r->dropped = c.engine().now();
    r->destroy = "ok";
  } catch (const LynxError& e) {
    r->destroy = to_string(e.kind());
  }
}

sim::Task<> tolerant_caller(ThreadCtx& c, LinkHandle l) {
  Message req = make_message("op", {});
  try {
    (void)co_await c.call(l, std::move(req));
  } catch (const LynxError&) {
    // the server's end may die under the call
  }
}

TEST(LynxSemantics, SiblingDestroyDuringScatterOrGatherIsSafe) {
  const RuntimeCosts costs{};
  int in_scatter = 0;
  int in_gather = 0;
  for (sim::Duration at = 0; at <= sim::msec(12); at += sim::usec(50)) {
    World w;
    w.boot();
    Race r;
    w.server.spawn_thread("srv", [&](ThreadCtx& ctx) {
      return racing_server(ctx, w.server_end, &r);
    });
    w.server.spawn_thread("sibling", [&](ThreadCtx& ctx) {
      return sibling_destroyer(ctx, w.server_end, at, &r);
    });
    w.client.spawn_thread("cli", [&](ThreadCtx& ctx) {
      return tolerant_caller(ctx, w.client_end);
    });
    w.engine.run();
    EXPECT_TRUE(w.server.thread_failures().empty()) << "at " << at;
    EXPECT_EQ(r.destroy, "ok") << "at " << at;
    if (r.received < 0) continue;  // dropped before the request was picked
    if (r.dropped < r.received) {
      ++in_scatter;
      EXPECT_EQ(r.reply, "link-destroyed") << "at " << at;
    } else if (r.dropped > r.received &&
               r.dropped < r.received + costs.per_operation) {
      ++in_gather;
      EXPECT_EQ(r.reply, "link-destroyed") << "at " << at;
    }
  }
  EXPECT_GT(in_scatter, 0);
  EXPECT_GT(in_gather, 0);
}

// Two siblings destroy the same end; the later one's sleep spans the
// earlier one's drop.
TEST(LynxSemantics, ConcurrentDestroysOfOneEndAreSafe) {
  for (sim::Duration lag = 0; lag <= sim::msec(3); lag += sim::usec(25)) {
    World w;
    w.boot();
    Race first;
    Race second;
    w.server.spawn_thread("first", [&](ThreadCtx& ctx) {
      return sibling_destroyer(ctx, w.server_end, 0, &first);
    });
    w.server.spawn_thread("second", [&](ThreadCtx& ctx) {
      return sibling_destroyer(ctx, w.server_end, lag, &second);
    });
    w.engine.run();
    EXPECT_EQ(first.destroy, "ok") << "lag " << lag;
    // The later destroy either raced into the backend before the drop
    // (a no-op there) or finds the end gone.
    EXPECT_TRUE(second.destroy == "ok" || second.destroy == "invalid-link")
        << "lag " << lag << ": " << second.destroy;
  }
}

// ---- peer-destroyed open ends -----------------------------------------------
//
// An end whose peer is destroyed stays in its owner's table, request
// queue open, until the owner destroys it.  receive() must keep serving
// live ends past any number of them, deliver what their queues still
// hold, and fail only once every open queue is dead.

// Makes `n` open request queues whose peers are destroyed.
sim::Task<> make_dead_open_ends(ThreadCtx& c, int n) {
  for (int i = 0; i < n; ++i) {
    LocalLinkPair pair = co_await c.new_link();
    c.enable_requests(pair.end1);
    co_await c.destroy(pair.end2);
  }
}

sim::Task<> dead_end_server(ThreadCtx& c, LinkHandle live,
                            std::vector<std::string>* log) {
  co_await make_dead_open_ends(c, 3000);
  c.enable_requests(live);
  for (int i = 0; i < 2; ++i) {
    Incoming in = co_await c.receive();
    CO_CHECK(in.link == live);
    Message rep;
    rep.args = in.msg.args;
    co_await c.reply(in, std::move(rep));
    log->push_back("served");
  }
  // Only dead queues are open now.
  c.disable_requests(live);
  try {
    (void)co_await c.receive();
    log->push_back("unexpected-message");
  } catch (const LynxError& e) {
    log->push_back(std::string("caught:") + to_string(e.kind()));
  }
}

TEST(LynxSemantics, ThousandsOfDeadOpenEndsDoNotHideTheLiveOne) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("srv", [&](ThreadCtx& ctx) {
    return dead_end_server(ctx, w.server_end, &log);
  });
  std::vector<int> replies;
  for (int i = 0; i < 2; ++i) {
    w.client.spawn_thread("cli" + std::to_string(i), [&, i](ThreadCtx& ctx) {
      return numbered_caller(ctx, w.client_end, i, &replies);
    });
  }
  w.engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"served", "served",
                                           "caught:link-destroyed"}));
  EXPECT_EQ(replies, (std::vector<int>{0, 1}));
  EXPECT_TRUE(w.server.thread_failures().empty());
  EXPECT_TRUE(w.client.thread_failures().empty());
}

// The client's request is queued at the server when the client dies:
// the destroyed end still delivers it, the reply feels the dead link,
// and only then does receive() report every open queue destroyed.
sim::Task<> late_receiver(ThreadCtx& c, LinkHandle l,
                          std::vector<std::string>* log) {
  c.enable_requests(l);
  co_await c.delay(sim::msec(100));
  Incoming in = co_await c.receive();
  log->push_back("received:" + in.msg.op);
  Message rep;
  try {
    co_await c.reply(in, std::move(rep));
    log->push_back("replied");
  } catch (const LynxError& e) {
    log->push_back(std::string("reply:") + to_string(e.kind()));
  }
  try {
    (void)co_await c.receive();
    log->push_back("unexpected-message");
  } catch (const LynxError& e) {
    log->push_back(std::string("receive:") + to_string(e.kind()));
  }
}

TEST(LynxSemantics, DestroyedEndStillDeliversItsQueuedRequest) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("srv", [&](ThreadCtx& ctx) {
    return late_receiver(ctx, w.server_end, &log);
  });
  w.client.spawn_thread("cli", [&](ThreadCtx& ctx) {
    return tolerant_caller(ctx, w.client_end);
  });
  w.engine.schedule(sim::msec(50), [&] { w.client.terminate(); });
  w.engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"received:op",
                                           "reply:link-destroyed",
                                           "receive:link-destroyed"}));
}

// A receiver blocked on its only live open queue, beside dead ones,
// fails when that end dies, and not before.
sim::Task<> lone_receiver(ThreadCtx& c, LinkHandle l, std::string* outcome,
                          sim::Time* failed_at) {
  co_await make_dead_open_ends(c, 50);
  c.enable_requests(l);
  try {
    (void)co_await c.receive();
    *outcome = "unexpected-message";
  } catch (const LynxError& e) {
    *outcome = std::string("caught:") + to_string(e.kind());
    *failed_at = c.engine().now();
  }
}

TEST(LynxSemantics, ReceiveFailsWhenTheLastLiveOpenEndDies) {
  World w;
  w.boot();
  std::string outcome;
  sim::Time failed_at = -1;
  w.server.spawn_thread("srv", [&](ThreadCtx& ctx) {
    return lone_receiver(ctx, w.server_end, &outcome, &failed_at);
  });
  const sim::Time death = sim::msec(500);
  w.engine.schedule(death, [&] { w.client.terminate(); });
  w.engine.run();
  EXPECT_EQ(outcome, "caught:link-destroyed");
  EXPECT_GE(failed_at, death);
}

// Closing a destroyed end's queue takes it out of the "every open queue
// is dead" verdict: the receiver then blocks instead of failing.
TEST(LynxSemantics, DisablingADestroyedEndUpdatesTheVerdict) {
  World w;
  w.boot();
  std::vector<std::string> log;
  ThreadId tid = w.server.spawn_thread("srv", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l,
              std::vector<std::string>* lg) -> sim::Task<> {
      c.enable_requests(l);
      co_await c.delay(sim::msec(50));  // the client dies meanwhile
      for (int round = 0; round < 2; ++round) {
        try {
          (void)co_await c.receive();
          lg->push_back("unexpected-message");
        } catch (const LynxError& e) {
          lg->push_back(std::string("caught:") + to_string(e.kind()));
        }
        c.disable_requests(l);
      }
    }(ctx, w.server_end, &log);
  });
  w.engine.schedule(sim::msec(10), [&] { w.client.terminate(); });
  w.engine.schedule(sim::msec(200), [&, tid] { w.server.abort_thread(tid); });
  w.engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"caught:link-destroyed",
                                           "caught:aborted"}));
}

}  // namespace
}  // namespace lynx

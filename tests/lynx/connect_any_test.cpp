// Error paths of the substrate-agnostic bootstrap helper.
//
// lynx::connect_any is the one place that lets substrate-blind drivers
// (tests/load, the schedule explorer) wire two processes, so its error
// surface is part of the checker's trusted base: an unknown or
// mismatched backend, a dead engine, or a terminated process must
// surface as a typed LynxError, and connecting the same pair twice must
// yield a second, fully independent link.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "chrysalis/kernel.hpp"
#include "lynx/charlotte_backend.hpp"
#include "lynx/chrysalis_backend.hpp"
#include "lynx/connect.hpp"
#include "lynx/runtime.hpp"
#include "sim/engine.hpp"

namespace lynx {
namespace {

using net::NodeId;

// A backend family connect_any has never heard of.
class FakeBackend final : public Backend {
 public:
  explicit FakeBackend(sim::Engine& engine) : Backend(engine, NodeId(0)) {}
  [[nodiscard]] std::string kernel_name() const override { return "fake"; }
  [[nodiscard]] Capabilities capabilities() const override { return {}; }
  [[nodiscard]] sim::Task<std::pair<BLink, BLink>> make_link() override {
    co_return std::pair<BLink, BLink>{};
  }
  [[nodiscard]] std::unique_ptr<PendingSend> begin_send(
      BLink /*link*/, WireMessage /*msg*/) override {
    return nullptr;
  }
  void set_interest(BLink /*link*/, bool /*want_requests*/,
                    bool /*want_replies*/) override {}
  void retract_reply_interest(BLink /*link*/) override {}
  [[nodiscard]] sim::Task<void> destroy(BLink /*link*/) override { co_return; }
  [[nodiscard]] std::uint64_t protocol_messages() const override { return 0; }

 private:
  [[nodiscard]] sim::Task<> pump() override { co_return; }
  [[nodiscard]] sim::Task<> perform_shutdown() override { co_return; }
};

// Coroutine bodies are free functions (CP.51); the outcome lands in a
// log the test asserts on after engine.run().
sim::Task<> try_connect(Process* a, Process* b, std::vector<std::string>* log,
                        LinkHandle* a_end = nullptr,
                        LinkHandle* b_end = nullptr) {
  try {
    auto [ae, be] = co_await connect_any(*a, *b);
    if (a_end != nullptr) *a_end = ae;
    if (b_end != nullptr) *b_end = be;
    log->push_back("ok");
  } catch (const LynxError& e) {
    log->push_back(std::string("error:") + to_string(e.kind()));
  }
}

sim::Task<> echo_once_server(ThreadCtx& ctx, LinkHandle link) {
  ctx.enable_requests(link);
  Incoming in = co_await ctx.receive();
  Message rep;
  rep.args = in.msg.args;
  co_await ctx.reply(in, std::move(rep));
}

sim::Task<> echo_once_client(ThreadCtx& ctx, LinkHandle link,
                             std::vector<std::string>* log) {
  Message req = make_message("echo", {std::string("ping")});
  Message rep = co_await ctx.call(link, std::move(req));
  log->push_back(std::get<std::string>(rep.args.at(0)));
}

TEST(ConnectAny, UnknownSubstrateTagIsInvalidLink) {
  sim::Engine engine;
  Process a(engine, "a", std::make_unique<FakeBackend>(engine));
  Process b(engine, "b", std::make_unique<FakeBackend>(engine));
  a.start();
  b.start();
  std::vector<std::string> log;
  engine.spawn("wire", try_connect(&a, &b, &log));
  engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "error:invalid-link");
}

TEST(ConnectAny, MismatchedSubstratesAreInvalidLink) {
  sim::Engine engine;
  charlotte::Cluster cluster(engine, 2);
  chrysalis::Kernel kernel(engine, net::ButterflyParams{});
  Process a(engine, "a", make_charlotte_backend(cluster, NodeId(0)));
  Process b(engine, "b", make_chrysalis_backend(kernel, NodeId(1)));
  a.start();
  b.start();
  std::vector<std::string> log;
  engine.spawn("wire", try_connect(&a, &b, &log));
  engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "error:invalid-link");
  engine.shutdown();
}

TEST(ConnectAny, ProcessesOnDifferentEnginesAreInvalidLink) {
  sim::Engine engine_a;
  sim::Engine engine_b;
  charlotte::Cluster cluster_a(engine_a, 2);
  charlotte::Cluster cluster_b(engine_b, 2);
  Process a(engine_a, "a", make_charlotte_backend(cluster_a, NodeId(0)));
  Process b(engine_b, "b", make_charlotte_backend(cluster_b, NodeId(0)));
  a.start();
  b.start();
  std::vector<std::string> log;
  engine_a.spawn("wire", try_connect(&a, &b, &log));
  engine_a.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "error:invalid-link");
  engine_a.shutdown();
  engine_b.shutdown();
}

TEST(ConnectAny, ConnectAfterEngineShutdownIsLinkDestroyed) {
  sim::Engine engine;
  charlotte::Cluster cluster(engine, 2);
  Process a(engine, "a", make_charlotte_backend(cluster, NodeId(0)));
  Process b(engine, "b", make_charlotte_backend(cluster, NodeId(1)));
  a.start();
  b.start();
  std::vector<std::string> log;
  engine.spawn("wire", try_connect(&a, &b, &log));
  engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "ok");

  engine.shutdown();
  ASSERT_TRUE(engine.is_shut_down());
  engine.spawn("late-wire", try_connect(&a, &b, &log));
  engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1], "error:link-destroyed");
}

TEST(ConnectAny, ConnectToTerminatedProcessIsLinkDestroyed) {
  sim::Engine engine;
  charlotte::Cluster cluster(engine, 2);
  Process a(engine, "a", make_charlotte_backend(cluster, NodeId(0)));
  Process b(engine, "b", make_charlotte_backend(cluster, NodeId(1)));
  a.start();
  b.start();
  b.terminate();
  std::vector<std::string> log;
  engine.spawn("wire", try_connect(&a, &b, &log));
  engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "error:link-destroyed");
  engine.shutdown();
}

TEST(ConnectAny, DoubleConnectYieldsIndependentWorkingLinks) {
  // Re-wiring the same pair is legal: the second link is fresh, and
  // traffic on both round-trips (this is exactly what the explorer's
  // multi-channel workload leans on).
  sim::Engine engine;
  charlotte::Cluster cluster(engine, 2);
  Process server(engine, "server", make_charlotte_backend(cluster, NodeId(0)));
  Process client(engine, "client", make_charlotte_backend(cluster, NodeId(1)));
  server.start();
  client.start();
  std::vector<std::string> wire_log;
  LinkHandle se1;
  LinkHandle ce1;
  LinkHandle se2;
  LinkHandle ce2;
  engine.spawn("wire1", try_connect(&server, &client, &wire_log, &se1, &ce1));
  engine.run();
  engine.spawn("wire2", try_connect(&server, &client, &wire_log, &se2, &ce2));
  engine.run();
  ASSERT_EQ(wire_log, (std::vector<std::string>{"ok", "ok"}));
  ASSERT_TRUE(se2.valid() && ce2.valid());
  EXPECT_NE(se1, se2);
  EXPECT_NE(ce1, ce2);

  std::vector<std::string> echo_log;
  server.spawn_thread("srv1", [se1](ThreadCtx& ctx) {
    return echo_once_server(ctx, se1);
  });
  server.spawn_thread("srv2", [se2](ThreadCtx& ctx) {
    return echo_once_server(ctx, se2);
  });
  client.spawn_thread("cli1", [ce1, &echo_log](ThreadCtx& ctx) {
    return echo_once_client(ctx, ce1, &echo_log);
  });
  client.spawn_thread("cli2", [ce2, &echo_log](ThreadCtx& ctx) {
    return echo_once_client(ctx, ce2, &echo_log);
  });
  engine.run();
  EXPECT_EQ(echo_log, (std::vector<std::string>{"ping", "ping"}));
  EXPECT_TRUE(server.thread_failures().empty());
  EXPECT_TRUE(client.thread_failures().empty());
  engine.shutdown();
}

}  // namespace
}  // namespace lynx

// E2 (paper figure 2 / §3.2.2): the Charlotte link-enclosure protocol.
//
//   simple case:          connect --request--> accept, reply <-- compute
//   multiple enclosures:  request --> goahead <-- enc --> enc --> ...
//
// For a LYNX request moving k link ends, Charlotte needs:
//   k <= 1 : 1 request packet                (figure 2 top)
//   k >= 2 : 1 request + 1 goahead + (k-1) enc packets (figure 2 bottom)
// while SODA and Chrysalis always move any k in ONE message.  This
// bench regenerates the packet counts and the latency penalty.
#include "harness.hpp"

namespace {

using namespace bench;
using lynx::Incoming;
using lynx::LinkHandle;
using lynx::LocalLinkPair;
using lynx::Message;
using lynx::ThreadCtx;
using lynx::Value;

sim::Task<> mover(ThreadCtx& ctx, LinkHandle via, int n, sim::Time* t0,
                  sim::Time* t1, sim::Engine* engine) {
  std::vector<LinkHandle> keep;
  Message req = lynx::make_message("take", {});
  for (int i = 0; i < n; ++i) {
    LocalLinkPair pair = co_await ctx.new_link();
    keep.push_back(pair.end1);
    req.args.emplace_back(pair.end2);
  }
  *t0 = engine->now();
  Message rep = co_await ctx.call(via, std::move(req));
  *t1 = engine->now();
  (void)rep;
}

sim::Task<> taker(ThreadCtx& ctx, LinkHandle via, int n) {
  ctx.enable_requests(via);
  Incoming in = co_await ctx.receive();
  RELYNX_ASSERT(static_cast<int>(in.msg.count_links()) == n);
  Message empty;
  co_await ctx.reply(in, std::move(empty));
}

struct MoveResult {
  double ms = 0;
  std::uint64_t goaheads = 0;
  std::uint64_t enc_packets = 0;
  std::uint64_t packets = 0;
};

MoveResult run_move(Substrate s, int enclosures) {
  Pair w(s);
  sim::Time t0 = 0, t1 = 0;
  w.server.spawn_thread("taker", [&](ThreadCtx& ctx) {
    return taker(ctx, w.server_end, enclosures);
  });
  w.client.spawn_thread("mover", [&](ThreadCtx& ctx) {
    return mover(ctx, w.client_end, enclosures, &t0, &t1, &w.engine);
  });
  w.engine.run();
  RELYNX_ASSERT(w.engine.process_failures().empty());
  MoveResult r;
  r.ms = sim::to_msec(t1 - t0);
  if (s == Substrate::kCharlotte) {
    const auto& cs = charlotte_stats(w.client);
    const auto& ss = charlotte_stats(w.server);
    r.goaheads = ss.goaheads_sent;
    r.enc_packets = cs.enc_packets_sent;
    r.packets = cs.packets_sent + ss.packets_sent;
  }
  return r;
}

void report() {
  table_header("E2: link enclosure protocol (paper figure 2)");
  std::printf("%-6s %18s %10s %8s %14s %14s\n", "encls",
              "charlotte packets", "goaheads", "encs", "charlotte ms",
              "chrysalis ms");
  for (int k : {0, 1, 2, 3, 4, 6, 8}) {
    MoveResult ch = run_move(Substrate::kCharlotte, k);
    MoveResult cy = run_move(Substrate::kChrysalis, k);
    std::printf("%-6d %18llu %10llu %8llu %14.2f %14.3f\n", k,
                static_cast<unsigned long long>(ch.packets),
                static_cast<unsigned long long>(ch.goaheads),
                static_cast<unsigned long long>(ch.enc_packets), ch.ms,
                cy.ms);
    // figure-2 structure:
    const auto expected_goaheads = static_cast<std::uint64_t>(k >= 2 ? 1 : 0);
    const auto expected_encs =
        static_cast<std::uint64_t>(k >= 2 ? k - 1 : 0);
    RELYNX_ASSERT(ch.goaheads == expected_goaheads);
    RELYNX_ASSERT(ch.enc_packets == expected_encs);
  }
  print_note("shape checks: k<=1 needs no goahead/enc packets; k>=2 costs");
  print_note("1 goahead + (k-1) enc packets on Charlotte; the primitive");
  print_note("kernels move any k in one message.");
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "enclosure_protocol");
  report();
  return 0;
}

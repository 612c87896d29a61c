#include "lynx/backend.hpp"

#include "lynx/errors.hpp"

namespace lynx {

Backend::Backend(sim::Engine& engine, net::NodeId node)
    : engine_(&engine), node_(node), drained_(engine) {}

void Backend::start(Sink sink) {
  RELYNX_ASSERT_MSG(!running_, "backend started twice");
  sink_ = std::move(sink);
  running_ = true;
  engine_->spawn(kernel_name() + "-pump", pump());
}

void Backend::shutdown() {
  if (!running_) return;
  running_ = false;
  draining_ = true;
  engine_->spawn(kernel_name() + "-shutdown", drain_then_shut_down());
}

sim::Task<> Backend::drain_then_shut_down() {
  // "Before terminating, each process destroys all of its links" (§2.1)
  // — but destruction must not outrun delivery: a thread released by
  // the early reply resolve may have left its reply still in the
  // substrate's hands.  The pump keeps serving until those settle.  A
  // send that can never settle parks the drain forever, exactly as a
  // thread blocked in reply() would.
  while (has_unsettled()) co_await drained_.wait();
  draining_ = false;
  co_await perform_shutdown();
}

void Backend::note_drain_progress() {
  if (draining_ && !has_unsettled()) drained_.wake_all();
}

sim::Task<std::pair<BLink, BLink>> Backend::bootstrap_link(
    Backend& /*peer*/) {
  throw LynxError(ErrorKind::kInvalidLink,
                  "connect_any: unknown substrate " + kernel_name());
  co_return {};
}

void Backend::upcall_arrival(BLink link, MsgKind kind, Bytes body,
                             std::vector<BLink> enclosures,
                             std::uint64_t trace) {
  BackendEvent ev;
  ev.kind = kind == MsgKind::kRequest ? BackendEvent::Kind::kRequestArrived
                                      : BackendEvent::Kind::kReplyArrived;
  ev.link = link;
  ev.body = std::move(body);
  ev.enclosures = std::move(enclosures);
  ev.trace = trace;
  if (sink_) sink_(std::move(ev));
}

void Backend::upcall_destroyed(BLink link) {
  BackendEvent ev;
  ev.kind = BackendEvent::Kind::kLinkDestroyed;
  ev.link = link;
  if (sink_) sink_(std::move(ev));
}

}  // namespace lynx

// Substrate-agnostic bootstrap wiring.
//
// The loader-fiat handshake is kernel-specific, so each backend
// implements Backend::bootstrap_link; callers only know they hold two
// processes on the *same* backend family and never mention a kernel by
// name.
#pragma once

#include <typeinfo>
#include <utility>

#include "lynx/errors.hpp"
#include "lynx/runtime.hpp"
#include "sim/task.hpp"

namespace lynx {

// Wires a <-> b with a fresh link and returns (a_end, b_end).  Both
// processes must sit on the same backend family; run on the engine
// before traffic.
//
// Error surface (LynxError, kInvalidLink / kLinkDestroyed): an unknown
// or mismatched substrate, processes on different engines, a
// terminated process, or an engine already shut down.  Connecting the
// same pair again is legal and yields a second, independent link.
[[nodiscard]] inline sim::Task<std::pair<LinkHandle, LinkHandle>> connect_any(
    Process& a, Process& b) {
  if (&a.engine() != &b.engine()) {
    throw LynxError(ErrorKind::kInvalidLink,
                    "connect_any: processes on different engines");
  }
  if (a.engine().is_shut_down()) {
    throw LynxError(ErrorKind::kLinkDestroyed,
                    "connect_any: engine already shut down");
  }
  if (a.terminated() || b.terminated()) {
    throw LynxError(ErrorKind::kLinkDestroyed,
                    "connect_any: process already terminated");
  }
  if (typeid(a.backend()) != typeid(b.backend())) {
    throw LynxError(ErrorKind::kInvalidLink,
                    "connect_any: mismatched substrates (" +
                        a.backend().kernel_name() + " vs " +
                        b.backend().kernel_name() + ")");
  }
  const auto [ta, tb] = co_await a.backend().bootstrap_link(b.backend());
  co_return std::pair(a.adopt_link(ta), b.adopt_link(tb));
}

}  // namespace lynx

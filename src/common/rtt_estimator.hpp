// Jacobson/Karels round-trip-time estimator (the SIGCOMM '88 gains:
// srtt moves by err/8, rttvar by |err|/4), shared by every substrate's
// ack protocol (DESIGN.md §12).  Charlotte keeps one per link end
// (reset when the end moves — a new path makes old samples stale);
// SODA keeps one per peer node.  Karn's rule — never sample a
// retransmitted exchange — is the caller's responsibility: only feed
// observe() round trips whose first transmission was the one answered.
#pragma once

#include <algorithm>

#include "sim/time.hpp"

namespace common {

// Bounds on every adaptive retransmission timeout, shared by Charlotte
// and SODA: the floor keeps a fast path from retransmitting into its own
// ack, the ceiling caps exponential backoff against a silent peer.
inline constexpr sim::Duration kRtoMin = sim::msec(10);
inline constexpr sim::Duration kRtoMax = sim::msec(2000);

struct RttEstimator {
  bool have_sample = false;
  sim::Duration srtt = 0;
  sim::Duration rttvar = 0;

  void observe(sim::Duration sample) {
    if (!have_sample) {
      srtt = sample;
      rttvar = sample / 2;
      have_sample = true;
      return;
    }
    const sim::Duration err = sample - srtt;
    rttvar += ((err < 0 ? -err : err) - rttvar) / 4;
    srtt += err / 8;
  }

  // Retransmission timeout: srtt + 4*rttvar clamped to [kRtoMin,
  // kRtoMax]; `initial` (the substrate's configured timeout) until the
  // first sample lands.
  [[nodiscard]] sim::Duration rto(sim::Duration initial) const {
    if (!have_sample) return initial;
    return std::clamp(srtt + 4 * rttvar, kRtoMin, kRtoMax);
  }
};

}  // namespace common

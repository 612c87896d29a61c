// Inter-kernel frames for the simulated Charlotte kernel.
//
// Charlotte kernels agree on link locations through an "all three
// parties" protocol (paper §6, lesson one).  We realize that agreement
// with a registrar: the kernel on the node where a link was created is
// its *home* and serializes every location change (moves, destruction).
// Movers update the home; the home notifies the stationary end; data
// frames that race a move are NACKed back to the sending kernel with the
// new location and retransmitted.  This keeps the defining property the
// paper contrasts with hints — nobody acts on stale location state;
// every change is acknowledged — while staying tractable, and it charges
// the honest price: four protocol frames per moved end, against zero
// for SODA/Chrysalis hints (experiments E1/E2/E4).
#pragma once

#include <cstdint>
#include <variant>

#include "charlotte/types.hpp"
#include "net/packet.hpp"

namespace charlotte::wire {

// Describes an enclosure riding in a data frame.  Besides routing
// state, it carries the moving end's ack-protocol counters (see
// DESIGN.md §12): sequence numbers are per-end, so the receiving kernel
// must resume the end's send counter and its receive watermark exactly
// where the old kernel left them — otherwise a retransmit chasing the
// moved end could be delivered a second time.
struct EnclosureDesc {
  EndId end;                 // the moving end
  LinkId link;               // its link
  EndId peer;                // the stationary end
  net::NodeId peer_node;     // mover's belief of the peer's location
  net::NodeId home;          // the link's registrar node
  std::uint64_t next_send_seq = 1;     // end's send-sequence counter
  std::uint64_t recv_watermark = 0;    // highest seq delivered to it
  std::size_t last_delivered_len = 0;  // its accepted length (for re-acks)
};

// Data message (the only frame a user payload rides in).
struct Msg {
  std::uint64_t seq;         // sending-END-unique, for acks/cancels
  EndId from_end;
  EndId to_end;
  Payload data;
  bool has_enclosure = false;
  EnclosureDesc enclosure{};
  // Causal identity (trace::TraceId, 0 = untraced).  Retained across
  // NACK- and timeout-driven retransmits so every copy of the message is
  // attributable to the originating RPC.  Simulation metadata: not
  // counted in frame_bytes.
  std::uint64_t trace = 0;
  // Piggybacked acknowledgement (DESIGN.md §12): an ack the sending
  // end owed for a delivery in the opposite direction rides along
  // instead of costing a standalone MsgAck frame.  It acknowledges
  // `ack_seq` on `to_end`'s outstanding send (the reverse direction of
  // this very link).
  bool has_ack = false;
  std::uint64_t ack_seq = 0;
  std::size_t ack_len = 0;
};

// Delivery acknowledged; sender's Wait may complete.
struct MsgAck {
  std::uint64_t seq;
  EndId to_end;              // the *sending* end
  std::size_t delivered_len;
  std::uint64_t trace = 0;   // inherited from the acked Msg
};

// Addressee end is no longer here; retransmit to `new_node`.
struct MsgNackMoved {
  std::uint64_t seq;
  EndId to_end;              // the sending end (route back)
  EndId moved_end;
  net::NodeId new_node;
};

// Addressee end's link is destroyed; fail the send.
struct MsgNackDestroyed {
  std::uint64_t seq;
  EndId to_end;              // the sending end
};

// Sender asks the receiving kernel to revoke a not-yet-delivered Msg.
struct CancelReq {
  std::uint64_t seq;         // seq of the Msg to revoke
  EndId from_end;            // sending end (route reply back)
  EndId to_end;              // receiving end
};

struct CancelReply {
  std::uint64_t seq;
  EndId to_end;              // the original sending end
  bool revoked;              // false: already delivered (cancel too late)
};

// Mover -> home: end `end` of `link` now lives at `new_node`/`new_owner`.
struct MoveUpdate {
  std::uint64_t move_seq;
  LinkId link;
  EndId end;
  net::NodeId new_node;
  Pid new_owner;
};

// Home -> stationary end's kernel: your peer moved.
struct PeerMoved {
  LinkId link;
  EndId end;                 // the stationary end being informed
  net::NodeId peer_node;
};

// Home -> mover: move recorded (or the link is already dead).  Carries
// the home's authoritative record of the peer's location so the new
// owner starts with fresh routing state.
struct MoveAck {
  std::uint64_t move_seq;
  EndId end;
  bool link_destroyed;
  net::NodeId peer_node;
};

// Either end -> home: destroy the link.
struct DestroyUpdate {
  LinkId link;
  EndId from_end;
};

// Home -> an end's kernel: the link is destroyed; fail everything.
struct LinkDown {
  LinkId link;
  EndId end;                 // which local end this applies to
};

using KernelFrame =
    std::variant<Msg, MsgAck, MsgNackMoved, MsgNackDestroyed, CancelReq,
                 CancelReply, MoveUpdate, PeerMoved, MoveAck, DestroyUpdate,
                 LinkDown>;

// Frame sizes on the wire (headers; Msg adds its payload bytes).
[[nodiscard]] inline std::size_t frame_bytes(const KernelFrame& f) {
  struct Sizer {
    std::size_t operator()(const Msg& m) const {
      return 24 + m.data.size() + (m.has_enclosure ? 48 : 0) +
             (m.has_ack ? 12 : 0);
    }
    std::size_t operator()(const MsgAck&) const { return 16; }
    std::size_t operator()(const MsgNackMoved&) const { return 24; }
    std::size_t operator()(const MsgNackDestroyed&) const { return 16; }
    std::size_t operator()(const CancelReq&) const { return 20; }
    std::size_t operator()(const CancelReply&) const { return 16; }
    std::size_t operator()(const MoveUpdate&) const { return 28; }
    std::size_t operator()(const PeerMoved&) const { return 20; }
    std::size_t operator()(const MoveAck&) const { return 16; }
    std::size_t operator()(const DestroyUpdate&) const { return 16; }
    std::size_t operator()(const LinkDown&) const { return 16; }
  };
  return std::visit(Sizer{}, f);
}

}  // namespace charlotte::wire

// A Fleet instantiates a Scenario's topology on one kernel substrate:
// the engine, a load::World holding the server and client processes,
// and the bootstrap links between them — everything except the traffic
// (load::Runner drives that).
//
// Node layout: servers (or pipeline stages) occupy nodes 0..M-1,
// clients M..M+N-1.  Fan-in wires every channel of client i to server
// i mod M; a pipeline additionally wires `server_threads` forward links
// from each stage to the next, one per worker thread so concurrent
// forwards never serialize on a link's one-outstanding-call rule.
#pragma once

#include <vector>

#include "load/scenario.hpp"
#include "load/world.hpp"
#include "lynx/lynx.hpp"
#include "sim/engine.hpp"

namespace load {

class Fleet {
 public:
  Fleet(Substrate substrate, const Scenario& scenario);
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] Substrate substrate() const { return world_.substrate(); }
  [[nodiscard]] std::size_t servers() const { return server_procs_.size(); }
  [[nodiscard]] std::size_t clients() const { return client_procs_.size(); }
  [[nodiscard]] lynx::Process& server(std::size_t s) {
    return *server_procs_[s];
  }
  [[nodiscard]] lynx::Process& client(std::size_t i) {
    return *client_procs_[i];
  }

  // Link ends, populated during construction (the ctor runs the engine
  // until the wiring coroutine finishes).
  [[nodiscard]] const std::vector<lynx::LinkHandle>& server_inbound(
      std::size_t s) const {
    return server_inbound_[s];
  }
  [[nodiscard]] const std::vector<lynx::LinkHandle>& client_channels(
      std::size_t i) const {
    return client_channels_[i];
  }
  // Pipeline only: stage s's calling ends toward stage s+1, one per
  // worker thread; empty for the last stage and for fan-in.
  [[nodiscard]] const std::vector<lynx::LinkHandle>& forward_links(
      std::size_t s) const {
    return forward_links_[s];
  }

  // World::wire_ops, sampled by the Runner at the measure window's
  // edges (E16).
  [[nodiscard]] std::uint64_t wire_ops() const { return world_.wire_ops(); }

 private:
  [[nodiscard]] static sim::Task<> wire(Fleet* f, Scenario sc);

  sim::Engine engine_;
  // A loaded run can end at the measurement deadline with hundreds of
  // coroutine frames parked mid-RPC; ~World shuts the engine down while
  // the processes and kernels those frames touch are still alive.
  World world_;
  std::vector<lynx::Process*> server_procs_;
  std::vector<lynx::Process*> client_procs_;
  std::vector<std::vector<lynx::LinkHandle>> server_inbound_;
  std::vector<std::vector<lynx::LinkHandle>> client_channels_;
  std::vector<std::vector<lynx::LinkHandle>> forward_links_;
};

}  // namespace load

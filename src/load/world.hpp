// A World is one simulated machine on one kernel substrate: the medium,
// the kernel, the crash wiring and the LYNX processes, each paired with
// its substrate's calibrated run-time costs.  Fleet, replica::Group, the
// explorer, the benches and the tests all build their worlds here, so
// what a world on each substrate *is* is written once:
//
//   Charlotte  token ring  [-> FaultyMedium] -> charlotte::Cluster
//   SODA       quiet CSMA bus [-> FaultyMedium] -> soda::Network
//   Chrysalis  chrysalis::Kernel on a Butterfly fabric (no medium)
//
// A fault plan, even an empty one, wraps the medium in a
// fault::FaultyMedium watched by an InvariantChecker and wires crash
// handling: a Charlotte crash becomes an absolute node-down notice at
// every peer (the distributed kernel knows every link's state), and a
// SODA restart announces the reboot so calls parked at the dead node
// fail lazily, SODA-style.  Chrysalis has no medium, so there a plan is
// ignored and a crash is plain process termination.
//
// The engine is the caller's.  The World owns everything else, and its
// destructor shuts the engine down before any member dies, so parked
// coroutine frames unwind while the processes and kernels they touch
// are still alive.  Members then die processes -> kernels -> medium.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "lynx/lynx.hpp"
#include "net/butterfly_switch.hpp"
#include "sim/engine.hpp"

namespace fault {
class FaultyMedium;
class InvariantChecker;
}  // namespace fault

namespace load {

enum class Substrate : std::uint8_t { kCharlotte = 0, kSoda = 1, kChrysalis = 2 };

[[nodiscard]] const char* to_string(Substrate s);
[[nodiscard]] std::array<Substrate, 3> all_substrates();

struct WorldParams {
  // Kernels on the medium (Charlotte, SODA); processes live on nodes
  // 0..nodes-1.
  std::size_t nodes = 2;
  // The Chrysalis fabric, sized on its own: its stage count sets every
  // remote reference's cost.
  net::ButterflyParams fabric;
  charlotte::Costs charlotte;
  soda::Costs soda;
  // RPC formation (DESIGN.md §14) on every substrate; World writes these
  // into both Costs above.  Chrysalis batches up to
  // max(2, form_max_bytes / 16) notices, parity with ~64 small
  // enclosures in the default 1024-byte frame.
  sim::Duration form_delay = 0;
  std::size_t form_max_bytes = 1024;
  std::uint64_t bus_seed = 0;  // the SODA bus's backoff draws
  std::optional<fault::Plan> faults;
  std::uint64_t fault_seed = 0;  // the FaultyMedium's stochastic faults
};

class World {
 public:
  World(sim::Engine& engine, Substrate substrate, WorldParams params = {});
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();

  [[nodiscard]] Substrate substrate() const { return substrate_; }

  // A new, not yet started process on `node`.  The World keeps every
  // process it ever made, so a crashed incarnation outlives its
  // replacement.
  [[nodiscard]] lynx::Process& make_process(std::string name,
                                            std::size_t node);

  // Physical wire operations so far: frames on the medium for Charlotte
  // and SODA, dual-queue enqueue dispatches for Chrysalis (which has no
  // wire).
  [[nodiscard]] std::uint64_t wire_ops() const;

  // The Charlotte cluster; null on the other substrates.
  [[nodiscard]] charlotte::Cluster* cluster() { return cluster_.get(); }

  // Null without a fault plan, and always on Chrysalis.
  [[nodiscard]] fault::FaultyMedium* faulty_medium() { return faulty_.get(); }
  [[nodiscard]] const fault::InvariantChecker* invariants() const {
    return invariants_.get();
  }
  // First medium-invariant violation, if any.
  [[nodiscard]] std::optional<std::string> invariant_violation() const;

  // Node crash and restart on the faulty medium (no-ops without one).
  // Crash before terminating the node's process: a dead node cannot
  // transmit its teardown.
  void crash(net::NodeId node);
  void restart(net::NodeId node);

 private:
  sim::Engine* engine_;
  Substrate substrate_;
  lynx::ChrysalisBackendParams chrysalis_;
  std::unique_ptr<net::Medium> base_;
  std::unique_ptr<fault::FaultyMedium> faulty_;
  std::unique_ptr<fault::InvariantChecker> invariants_;
  lynx::SodaDirectory directory_;
  std::unique_ptr<charlotte::Cluster> cluster_;
  std::unique_ptr<soda::Network> network_;
  std::unique_ptr<chrysalis::Kernel> kernel_;
  std::vector<std::unique_ptr<lynx::Process>> processes_;
};

}  // namespace load

#include "load/world.hpp"

#include <algorithm>
#include <utility>

#include "fault/faulty_medium.hpp"
#include "fault/invariant_checker.hpp"

namespace load {

const char* to_string(Substrate s) {
  switch (s) {
    case Substrate::kCharlotte: return "charlotte";
    case Substrate::kSoda: return "soda";
    case Substrate::kChrysalis: return "chrysalis";
  }
  return "?";
}

std::array<Substrate, 3> all_substrates() {
  return {Substrate::kCharlotte, Substrate::kSoda, Substrate::kChrysalis};
}

World::World(sim::Engine& engine, Substrate substrate, WorldParams p)
    : engine_(&engine), substrate_(substrate) {
  p.charlotte.form_delay = p.soda.form_delay = chrysalis_.form_delay =
      p.form_delay;
  p.charlotte.form_max_bytes = p.soda.form_max_bytes = p.form_max_bytes;
  chrysalis_.form_max_notices = std::max<std::size_t>(2, p.form_max_bytes / 16);

  if (substrate == Substrate::kChrysalis) {
    kernel_ = std::make_unique<chrysalis::Kernel>(engine, p.fabric);
    return;
  }
  if (substrate == Substrate::kCharlotte) {
    base_ = std::make_unique<net::TokenRing>(engine);
  } else {
    // A quiet bus: loss comes from a fault plan, never from the bus.
    net::CsmaBusParams bus;
    bus.broadcast_drop_prob = 0.0;
    base_ = std::make_unique<net::CsmaBus>(engine, sim::Rng(p.bus_seed), bus);
  }
  net::Medium* medium = base_.get();
  if (p.faults.has_value()) {
    faulty_ = std::make_unique<fault::FaultyMedium>(engine, *base_,
                                                    p.fault_seed, *p.faults);
    invariants_ = std::make_unique<fault::InvariantChecker>(*faulty_);
    medium = faulty_.get();
  }
  if (substrate == Substrate::kCharlotte) {
    cluster_ = std::make_unique<charlotte::Cluster>(engine, p.nodes, *medium,
                                                    p.charlotte);
    if (faulty_) {
      faulty_->on_crash(
          [this](net::NodeId n) { cluster_->notify_node_down(n); });
    }
  } else {
    network_ =
        std::make_unique<soda::Network>(engine, p.nodes, *medium, p.soda);
    if (faulty_) {
      faulty_->on_restart(
          [this](net::NodeId n) { network_->kernel(n).announce_reboot(); });
    }
  }
}

World::~World() { engine_->shutdown(); }

lynx::Process& World::make_process(std::string name, std::size_t node) {
  const net::NodeId nid(static_cast<std::uint32_t>(node));
  std::unique_ptr<lynx::Backend> backend;
  lynx::RuntimeCosts costs;
  switch (substrate_) {
    case Substrate::kCharlotte:
      backend = lynx::make_charlotte_backend(*cluster_, nid);
      costs = lynx::vax_runtime_costs();
      break;
    case Substrate::kSoda:
      backend = lynx::make_soda_backend(*network_, directory_, nid);
      costs = lynx::pdp11_runtime_costs();
      break;
    case Substrate::kChrysalis:
      backend = lynx::make_chrysalis_backend(*kernel_, nid, chrysalis_);
      costs = lynx::mc68000_runtime_costs();
      break;
  }
  processes_.push_back(std::make_unique<lynx::Process>(
      *engine_, std::move(name), std::move(backend), costs));
  return *processes_.back();
}

std::uint64_t World::wire_ops() const {
  return base_ ? base_->frames_sent() : kernel_->enqueue_calls();
}

std::optional<std::string> World::invariant_violation() const {
  if (invariants_ == nullptr || invariants_->ok()) return std::nullopt;
  return invariants_->violations().front();
}

void World::crash(net::NodeId node) {
  if (faulty_) faulty_->crash(node);
}

void World::restart(net::NodeId node) {
  if (faulty_) faulty_->restart(node);
}

}  // namespace load

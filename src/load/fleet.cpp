#include "load/fleet.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"

namespace load {

namespace {

WorldParams world_params(const Scenario& sc) {
  WorldParams p;
  p.nodes = sc.servers + sc.clients;
  p.fabric.nodes = static_cast<std::uint32_t>(p.nodes);
  p.form_delay = sc.form_delay;
  p.form_max_bytes = sc.form_max_bytes;
  p.bus_seed = sc.seed ^ 0x50da50daULL;
  // Each LYNX link end parks one standing status signal at its peer
  // (SodaBackend::post_signal), so a client pipelining across N
  // channels holds N signal slots PLUS up to N data requests against
  // the §4.2.1 per-pair admission budget — at N == the default budget
  // of 8 the signals alone fill it and every data request bounces
  // with kTooManyRequests forever.  Scale the budget with the wiring
  // so deep-pipeline scenarios saturate on the wire, not on the
  // admission limit.
  p.soda.max_outstanding_per_pair =
      std::max(p.soda.max_outstanding_per_pair,
               static_cast<int>(2 * sc.channels_per_client + 2));
  return p;
}

}  // namespace

Fleet::Fleet(Substrate substrate, const Scenario& sc)
    : world_(engine_, substrate, world_params(sc)) {
  RELYNX_ASSERT(sc.servers >= 1 && sc.clients >= 1);
  RELYNX_ASSERT(sc.channels_per_client >= 1 && sc.server_threads >= 1);
  for (std::size_t s = 0; s < sc.servers; ++s) {
    server_procs_.push_back(
        &world_.make_process("server" + std::to_string(s), s));
  }
  for (std::size_t i = 0; i < sc.clients; ++i) {
    client_procs_.push_back(
        &world_.make_process("client" + std::to_string(i), sc.servers + i));
  }
  for (lynx::Process* p : server_procs_) p->start();
  for (lynx::Process* p : client_procs_) p->start();

  server_inbound_.resize(sc.servers);
  client_channels_.resize(sc.clients);
  forward_links_.resize(sc.servers);
  engine_.spawn("wire", wire(this, sc));
  engine_.run();  // only bootstrap traffic exists yet
  for (std::size_t i = 0; i < sc.clients; ++i) {
    RELYNX_ASSERT_MSG(client_channels_[i].size() == sc.channels_per_client,
                      "fleet wiring incomplete");
  }
}

sim::Task<> Fleet::wire(Fleet* f, Scenario sc) {
  // Clients call into their server (fan-in) or into stage 0 (pipeline).
  for (std::size_t i = 0; i < sc.clients; ++i) {
    const std::size_t target =
        sc.topology == Topology::kFanIn ? i % sc.servers : 0;
    for (std::size_t c = 0; c < sc.channels_per_client; ++c) {
      auto [srv_end, cli_end] =
          co_await lynx::connect_any(f->server(target), f->client(i));
      f->server_inbound_[target].push_back(srv_end);
      f->client_channels_[i].push_back(cli_end);
    }
  }
  if (sc.topology == Topology::kPipeline) {
    for (std::size_t s = 0; s + 1 < sc.servers; ++s) {
      for (std::size_t w = 0; w < sc.server_threads; ++w) {
        auto [next_end, stage_end] =
            co_await lynx::connect_any(f->server(s + 1), f->server(s));
        f->server_inbound_[s + 1].push_back(next_end);
        f->forward_links_[s].push_back(stage_end);
      }
    }
  }
}

}  // namespace load

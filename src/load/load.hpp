// load:: public umbrella — workload generation and capacity measurement.
//
//   load::Scenario sc;                      // what to offer (scenario.hpp)
//   sc.arrival = load::Arrival::kOpenPoisson;
//   sc.offered_rate = 200.0;
//   load::Report r = load::run_scenario(load::Substrate::kSoda, sc);
//   auto cap = load::find_capacity(load::Substrate::kSoda, sc);
//
// See bench/bench_capacity.cpp for the full throughput–latency curves.
#pragma once

#include "load/capacity.hpp"
#include "load/fleet.hpp"
#include "load/report.hpp"
#include "load/runner.hpp"
#include "load/scenario.hpp"
#include "load/world.hpp"

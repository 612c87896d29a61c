// A replicated key-value/counter service built from nothing but LYNX
// primitives — the paper's thesis made stateful.  A primary accepts
// client operations over ordinary links, forwards writes to its
// backups over ordinary links ("rep" messages carrying a view number
// and an op sequence, viewstamped-style), applies and acknowledges
// only after every live backup has acknowledged, and survives node
// crash/restart: primary fail-over is a view change driven by the
// deployment harness (pick the survivor with the most applied ops,
// bump the view, rewire clients), and a restarted replica catches up
// from a full-state "sync" before rejoining the commit fan-out.
//
// There is no consensus protocol here on purpose: one primary exists
// at a time by construction (the harness terminates the old one before
// anointing a successor), which is exactly the regime where
// primary-backup gives linearizability — and the linearizability
// oracle in src/check/linearizability.hpp holds it to that, consuming
// the kv.invoke / kv.ok / kv.err instants the clients emit on the
// "app" trace track.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "load/world.hpp"
#include "lynx/lynx.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"

namespace replica {

enum class OpType : std::uint8_t { kPut = 0, kGet = 1, kAdd = 2 };

[[nodiscard]] const char* to_string(OpType t);

struct Options {
  std::size_t replicas = 3;  // nodes 0..replicas-1; node 0 starts as primary
  std::size_t clients = 2;   // nodes replicas..replicas+clients-1
  int ops_per_client = 8;
  std::int64_t keys = 2;     // small keyspace => contention => oracle power
  std::uint64_t seed = 1;    // medium randomness (SODA bus, FaultyMedium)
  sim::Duration think = sim::msec(1);     // client gap between operations
  sim::Duration start_delay = sim::msec(5);  // wiring settles before traffic

  // Fault schedule, absolute simulated times; 0 = never.  The crash
  // victim of crash_primary_at is whichever node is primary *then*.
  sim::Time crash_primary_at = 0;
  sim::Time restart_primary_at = 0;  // the ex-primary rejoins as a backup
  sim::Time crash_backup_at = 0;     // crashes node replicas-1
  sim::Time restart_backup_at = 0;
  sim::Duration failover_delay = sim::msec(5);  // detection -> view change

  // RPC formation (src/form/, DESIGN.md §14): the primary's commit
  // fan-out emits one small Apply frame per backup per write, so
  // co-destined frames batch well.  0 = frame-per-message (default).
  sim::Duration form_delay = 0;
  std::size_t form_max_bytes = 1024;

  // Planted bug for the oracle self-test (the debug_drop_reacks idiom):
  // the primary serves every get from a snapshot that lags the last
  // committed write to that key by one, a classic stale read.
  bool debug_stale_reads = false;
};

// One replica's durable state (lost on crash, rebuilt by "sync").
struct Store {
  std::map<std::int64_t, std::int64_t> kv;
  // Last overwritten value per key; only read by debug_stale_reads.
  std::map<std::int64_t, std::int64_t> prev;
  std::uint64_t applied = 0;  // op sequence number reached
  std::uint64_t view = 0;
};

enum class Role : std::uint8_t { kPrimary, kBackup };

struct BackupSlot {
  lynx::LinkHandle link;  // primary's calling end
  bool alive = true;
};

// Commit-side state, used only while a node is primary.
struct PrimaryState {
  std::uint64_t next_seq = 1;
  std::vector<BackupSlot> backups;
  // Freshly (re)wired backups awaiting a full-state sync before they
  // join the fan-out; drained by the serve loop around each receive.
  std::deque<lynx::LinkHandle> pending;
};

struct Metrics {
  sim::Histogram write_latency;  // client-observed commit latency, usec
  sim::Histogram read_latency;   // usec
  std::uint64_t ok = 0;
  std::uint64_t err = 0;
  sim::Time crash_primary_time = 0;
  // First commit applied in each view; views[1] - crash_primary_time is
  // the fail-over recovery time.
  std::map<std::uint64_t, sim::Time> first_commit_in_view;
};

class Group {
 public:
  // Builds the whole world on `engine` — substrate, processes, links,
  // service threads, fault schedule — and runs the engine until the
  // bootstrap wiring has finished (the Fleet discipline).  The caller
  // then drives the workload with engine.run().
  Group(sim::Engine& engine, load::Substrate substrate, Options opt);
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;
  ~Group();

  [[nodiscard]] const Options& options() const { return opt_; }

  [[nodiscard]] std::uint64_t view() const;
  [[nodiscard]] std::size_t primary_index() const;
  [[nodiscard]] bool alive(std::size_t replica) const;
  [[nodiscard]] const Store& store(std::size_t replica) const;
  [[nodiscard]] const Metrics& metrics() const;

  [[nodiscard]] lynx::Process& replica_process(std::size_t i);
  [[nodiscard]] lynx::Process& client_process(std::size_t i);
  // First medium-invariant violation, if any (empty when there is no
  // medium, i.e. Chrysalis).
  [[nodiscard]] std::optional<std::string> invariant_violation() const {
    return world_.invariant_violation();
  }
  // Thread failures across every process this group ever ran,
  // including pre-restart incarnations.
  [[nodiscard]] std::vector<std::string> thread_failures() const;

  // Fail-over recovery time: first commit of view 1 minus the primary
  // crash instant.  Empty until both have happened.
  [[nodiscard]] std::optional<sim::Duration> failover_recovery() const;

  struct Core;  // shared by the service-thread bodies in replica.cpp

 private:
  Options opt_;
  // Mutable group state.  Declared before the world so it outlives
  // ~World's engine shutdown: parked frames still reference its wait
  // lists while they unwind.
  std::unique_ptr<Core> core_;
  load::World world_;  // owns every process, pre-restart ones included
};

}  // namespace replica

// The benchmark's workloads: named ShardedServer configurations whose
// inputs (task pools and churn scripts) are generated from the run seed.
//
// A run serves a fixed set of `pools` task pools. Pool k of seed s gets
// its own mix seed and arrival seed, both derived from (s, k), so the same
// seed always yields the same inputs, and a run's figures are combined
// over several pools instead of hanging on one pool's content.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/frontend.hpp"
#include "serve/sharded_server.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  const char* why;
  std::size_t tasks;
  std::size_t shards;
  std::size_t cycles;
  speedqm::PlacementPolicy placement;
  /// Churn from the poisson arrival generator, fed through ServeFrontend.
  bool churn;
  /// Task pools served per run.
  std::size_t pools;
};

const std::vector<Workload>& workloads();
/// Null for an unknown name.
const Workload* find_workload(const std::string& name);

/// One pool's generated inputs: the server spec (worker count included)
/// and, for churn workloads, the join/leave script the front-end carries.
struct Scenario {
  speedqm::ShardedServerSpec spec;
  std::vector<speedqm::ArrivalEvent> script;
};

Scenario make_scenario(const Workload& workload, std::uint64_t seed,
                       std::size_t pool, std::size_t workers);

/// A front-end holding the scenario's script, submitted from the calling
/// thread (the single producer) in script order. Returns null when the
/// scenario has no script. When `submit_ns` is non-null it receives the
/// host time of every submit call.
std::unique_ptr<speedqm::ServeFrontend> make_frontend(
    const Scenario& scenario, std::vector<double>* submit_ns = nullptr);

}  // namespace perfbench

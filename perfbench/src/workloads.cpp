#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "workload/generator.hpp"

namespace perfbench {

using namespace speedqm;

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::size_t pool,
                          std::uint64_t salt) {
  return splitmix64(splitmix64(seed) ^ splitmix64(pool * 2 + salt));
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"cold-admit",
       "T=512 S=8 best-fit, 64 cycles: pool build and admission are most of "
       "the run (setup-bound)",
       512, 8, 64, PlacementPolicy::kBestFit, false, 6},
      {"steady-serve",
       "T=64 S=4 most-slack, 16384 cycles: decision sweep, content source, "
       "executor and summary fold; admission nearly absent",
       64, 4, 16384, PlacementPolicy::kMostSlack, false, 4},
      {"churn-serve",
       "T=256 S=8 most-slack, 1024 cycles of poisson churn via the front-end: "
       "admission and shard rebuilds interleaved with serving",
       256, 8, 1024, PlacementPolicy::kMostSlack, true, 4},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Scenario make_scenario(const Workload& workload, std::uint64_t seed,
                       std::size_t pool, std::size_t workers) {
  Scenario sc;
  ShardedServerSpec& spec = sc.spec;
  spec.mix.num_tasks = workload.tasks;
  spec.mix.seed = derive_seed(seed, pool, 1);
  spec.num_shards = workload.shards;
  spec.num_workers = workers;
  spec.cycles = workload.cycles;
  spec.placement = workload.placement;
  if (!workload.churn) return sc;

  // The pool geometry `speedqm_tool serve --workload poisson` uses: about a
  // quarter of the pool is held back for the generated joins.
  WorkloadSpec wspec;
  wspec.seed = derive_seed(seed, pool, 2);
  wspec.cycles = workload.cycles;
  wspec.pool_tasks = workload.tasks;
  wspec.initial_tasks =
      workload.tasks - std::min(workload.tasks / 4 + 1, workload.tasks - 1);
  auto gen = make_workload_generator("poisson");
  gen->open(wspec);
  spec.initial_tasks = wspec.initial_tasks;
  sc.script = drain_arrival_schedule(*gen).events();
  return sc;
}

std::unique_ptr<ServeFrontend> make_frontend(const Scenario& scenario,
                                             std::vector<double>* submit_ns) {
  if (scenario.script.empty()) return nullptr;
  const std::vector<ArrivalEvent>& events = scenario.script;
  auto frontend = std::make_unique<ServeFrontend>(
      std::max<std::size_t>(FrontendQueue::kDefaultCapacity,
                            2 * events.size()));
  for (std::size_t i = 0; i < events.size(); ++i) {
    FrontendRequest r;
    r.cycle = events[i].cycle;
    r.task = events[i].task;
    r.kind = events[i].join ? RequestKind::kJoin : RequestKind::kLeave;
    r.order = i;
    r.producer = 0;
    r.producer_seq = static_cast<std::uint32_t>(i);
    const auto t0 = std::chrono::steady_clock::now();
    // The ring holds the whole script, so a reject is a geometry bug.
    if (frontend->submit(r) != PushResult::kAccepted) {
      throw std::runtime_error("front-end rejected a request");
    }
    if (submit_ns) {
      submit_ns->push_back(std::chrono::duration<double, std::nano>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
    }
  }
  return frontend;
}

}  // namespace perfbench

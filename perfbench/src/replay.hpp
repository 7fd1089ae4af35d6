// Layer replay of ShardedServer::serve(): the same serving run rebuilt
// from the public functions of each layer, in the server's own order —
//
//   TaskPool, then the initial AdmissionController::admit loop, then per
//   shard MultiTaskMix + BatchMultiTaskManager, then each segment's
//   run_cyclic with the start_cycle/start_time hand-off, then at every
//   barrier the front-end's matured leaves and joins, and finally
//   fold_serving_summary.
//
// Its deterministic result must equal the server's bit for bit (the
// benchmark checks the digests), which makes it both the untraced run's
// independent reference and, with a probe attached, the traced run that
// times each layer from outside. It covers what the benchmark's workloads
// use: the simulated clock, no perturbation scenario, no async manager,
// and churn delivered through a ServeFrontend.
#pragma once

#include <vector>

#include "layer_trace.hpp"
#include "serve/frontend.hpp"
#include "serve/serving_summary.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What a traced replay records besides its spans.
struct ReplayProbe {
  Tracer tracer;
  /// One per shard, accumulated over all of the shard's segments.
  std::vector<StepCounters> shards;
  /// Largest total table footprint of the live shard managers seen at
  /// any barrier.
  std::size_t table_bytes = 0;
};

/// Runs the scenario layer by layer. `frontend` must carry the scenario's
/// script (null when it has none). A non-null probe turns tracing on.
speedqm::ServingSummary replay_serve(const Scenario& scenario,
                                     speedqm::ServeFrontend* frontend,
                                     ReplayProbe* probe);

}  // namespace perfbench

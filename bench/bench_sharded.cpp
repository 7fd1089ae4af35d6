// Experiment S1 — sharded multi-clock serving (serve/ShardedServer).
//
// Five claims, four gated everywhere and one gated where hardware allows:
//   1. Degenerate equivalence: S = 1 sharded serving is bit-identical to
//      the PR-3 path (BatchMultiTaskManager over MultiTaskMix) — same
//      steps, same mean quality bits, same decision ops.
//   2. Admission determinism: the AdmissionDecision log and every shard
//      summary are identical for 1 and N worker threads (admission runs
//      on the control thread at segment barriers only).
//   3. Scaling (needs >= 4 hardware threads, else SKIP): serving the
//      T = 32 mix on S = 4 shards with 4 workers is >= 3x the S = 1
//      single-clock throughput (most-slack placement, min over repeats).
//   4. Setup scaling: setup per admitted task (pool build plus initial
//      placement through admission) at T = 4096 is at most 2x the T = 512
//      figure on S = 8 shards with most-slack placement (min over
//      repeats), so setup grows about linearly in T.
//   5. Rebuild scaling: one shard rebuild (MultiTaskMix plus its
//      BatchMultiTaskManager, built and torn down) costs at most 1.5x
//      more ns per composite action with 256 members than with 32 (min of
//      7 interleaved runs), so a rebuild stays O(N log T) in practice.
//
// Writes BENCH_sharded.json. Only machine-portable cells go to the JSON —
// per-step serving cost and decision ops of the SERIAL (workers = 1)
// execution per shard count — so the committed baseline gates regressions
// through tools/compare_bench.py on any runner. Wall-clock scaling numbers
// are printed (and gated) but never baselined: they depend on the
// runner's core count. The setup- and rebuild-scaling gates compare two
// runs on one machine and are not baselined either.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "core/batch_engine.hpp"
#include "serve/sharded_server.hpp"
#include "sim/metrics.hpp"

#include "bench_common.hpp"

using namespace speedqm;
using namespace speedqm::bench;

namespace {

constexpr std::size_t kPoolTasks = 32;
constexpr std::uint64_t kSeed = 20070730;

MultiTaskMixSpec pool_spec() {
  MultiTaskMixSpec spec;
  spec.num_tasks = kPoolTasks;
  spec.seed = kSeed;
  spec.num_cycles = 4;
  return spec;
}

ShardedServerSpec server_spec(std::size_t shards, std::size_t workers,
                              std::size_t cycles) {
  ShardedServerSpec spec;
  spec.mix = pool_spec();
  spec.num_shards = shards;
  spec.num_workers = workers;
  spec.cycles = cycles;
  spec.placement = PlacementPolicy::kMostSlack;
  return spec;
}

bool summaries_identical(const RunSummary& a, const RunSummary& b) {
  return a.total_steps == b.total_steps &&
         a.manager_calls == b.manager_calls &&
         a.deadline_misses == b.deadline_misses &&
         a.infeasible == b.infeasible && a.total_ops == b.total_ops &&
         a.mean_quality == b.mean_quality &&
         a.overhead_pct == b.overhead_pct &&
         a.total_time_s == b.total_time_s &&
         a.smoothness.quality_stddev == b.smoothness.quality_stddev &&
         a.smoothness.switches == b.smoothness.switches &&
         a.relax_histogram == b.relax_histogram;
}

/// Gate 1: S = 1 degenerate differential against the direct batch path.
bool check_degenerate_equivalence(std::size_t cycles) {
  MultiTaskMix mix(pool_spec());
  BatchMultiTaskManager manager(mix.composed(), mix.engines());
  RunSummaryAccumulator acc("direct");
  ExecutorOptions opts = mix.executor_options(cycles);
  opts.retain_steps = false;
  opts.retain_cycles = false;
  opts.sink = &acc;
  run_cyclic(mix.composed().app(), manager, mix.source(), opts);
  const RunSummary direct = acc.finish();

  ShardedServer server(server_spec(1, 1, cycles));
  const ServingSummary sharded = server.serve();

  bool ok = true;
  ok &= shape_check("S=1 sharded admits the full pool",
                    sharded.admitted == kPoolTasks && sharded.rejected == 0);
  ok &= shape_check(
      "S=1 sharded bit-identical to BatchMultiTaskManager (steps, quality, "
      "ops, misses, smoothness)",
      sharded.shards.size() == 1 &&
          summaries_identical(sharded.shards[0].summary, direct));
  return ok;
}

/// Gate 2: admission decisions and results identical across worker counts.
bool check_admission_determinism() {
  const std::size_t cycles = 24;
  const std::size_t initial = kPoolTasks - 8;
  const ArrivalSchedule schedule =
      make_arrival_schedule(kPoolTasks, initial, cycles, 12, kSeed ^ 0xa1);

  const auto run_with = [&](std::size_t workers) {
    ShardedServerSpec spec = server_spec(4, workers, cycles);
    spec.initial_tasks = initial;
    ShardedServer server(spec, schedule);
    return server.serve();
  };
  const ServingSummary one = run_with(1);
  const ServingSummary many = run_with(4);

  bool same_admissions = one.admissions.size() == many.admissions.size();
  if (same_admissions) {
    for (std::size_t i = 0; i < one.admissions.size(); ++i) {
      const AdmissionDecision& a = one.admissions[i];
      const AdmissionDecision& b = many.admissions[i];
      same_admissions &= a.task == b.task && a.cycle == b.cycle &&
                         a.admitted == b.admitted && a.shard == b.shard &&
                         a.slack == b.slack && a.reason == b.reason;
    }
  }
  bool same_shards = one.shards.size() == many.shards.size();
  if (same_shards) {
    for (std::size_t s = 0; s < one.shards.size(); ++s) {
      same_shards &= summaries_identical(one.shards[s].summary,
                                         many.shards[s].summary) &&
                     one.shards[s].members == many.shards[s].members &&
                     one.shards[s].clock == many.shards[s].clock;
    }
  }
  bool ok = true;
  ok &= shape_check("admission decisions identical for 1 vs 4 workers",
                    same_admissions);
  ok &= shape_check("per-shard serving results identical for 1 vs 4 workers",
                    same_shards);
  ok &= shape_check("arrival scenario exercised joins (admitted > initial)",
                    one.admitted > initial || one.rejected > 0);
  return ok;
}

/// JSON cells + gate 3: serial per-step cost per S, and the hardware-gated
/// S = 4 scaling factor.
bool measure_and_gate_scaling(std::vector<DecisionBenchRecord>& records) {
  bool ok = true;
  const std::size_t cycles = 384;
  TextTable table({"S", "workers", "steps", "wall ms", "ns/step", "ops/step",
                   "speedup vs S=1 serial"});

  const auto serve_once = [&](std::size_t shards, std::size_t workers) {
    ShardedServer server(server_spec(shards, workers, cycles));
    return server.serve();
  };
  // Min-over-repeats serving wall time (construction/placement excluded).
  const auto min_wall = [&](std::size_t shards, std::size_t workers,
                            ServingSummary* out) {
    double best = 0;
    for (int repeat = 0; repeat < 3; ++repeat) {
      ServingSummary s = serve_once(shards, workers);
      if (repeat == 0 || s.wall_seconds < best) {
        best = s.wall_seconds;
        if (out != nullptr) *out = std::move(s);
      }
    }
    return best;
  };

  double serial_base_ns = 0;
  std::size_t serial_base_steps = 0;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    ServingSummary summary;
    const double wall = min_wall(shards, 1, &summary);
    ok &= shape_check("serial S=" + std::to_string(shards) +
                          " admits the full pool",
                      summary.admitted == kPoolTasks);
    const double ns_per_step =
        wall * 1e9 / static_cast<double>(summary.total_steps);
    const double ops_per_step = static_cast<double>(summary.total_ops) /
                                static_cast<double>(summary.total_steps);
    if (shards == 1) {
      serial_base_ns = wall * 1e9;
      serial_base_steps = summary.total_steps;
    }
    table.begin_row()
        .cell(shards)
        .cell(std::size_t{1})
        .cell(summary.total_steps)
        .cell(wall * 1e3, 2)
        .cell(ns_per_step, 1)
        .cell(ops_per_step, 2)
        .cell(serial_base_ns / (wall * 1e9), 2);
    table.end_row();

    DecisionBenchRecord rec;
    rec.policy = "mixed";
    rec.engine = "sharded-serial";
    rec.n = shards;
    rec.num_levels = 7;
    rec.ns_per_decision = ns_per_step;
    rec.ops_per_decision = ops_per_step;
    records.push_back(rec);

    // Identical pool at every S: the step volume must not depend on the
    // partition (same tasks, same cycles).
    ok &= shape_check("S=" + std::to_string(shards) +
                          " serves the same step volume as S=1",
                      summary.total_steps == serial_base_steps);
  }

  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 4) {
    // Longer horizon for the parallel comparison so per-segment thread
    // spawn cost amortizes away; both sides use the same horizon.
    const std::size_t scale_cycles = 2 * cycles;
    const auto min_wall_at = [&](std::size_t shards, std::size_t workers,
                                 ServingSummary* out) {
      double best = 0;
      for (int repeat = 0; repeat < 3; ++repeat) {
        ShardedServer server(server_spec(shards, workers, scale_cycles));
        ServingSummary s = server.serve();
        if (repeat == 0 || s.wall_seconds < best) {
          best = s.wall_seconds;
          if (out != nullptr) *out = std::move(s);
        }
      }
      return best;
    };
    ServingSummary serial, parallel;
    const double wall1 = min_wall_at(1, 1, &serial);
    const double wall4 = min_wall_at(4, 4, &parallel);
    const double speedup = wall1 / wall4;
    table.begin_row()
        .cell(std::size_t{4})
        .cell(std::size_t{4})
        .cell(parallel.total_steps)
        .cell(wall4 * 1e3, 2)
        .cell(wall4 * 1e9 / static_cast<double>(parallel.total_steps), 1)
        .cell(static_cast<double>(parallel.total_ops) /
                  static_cast<double>(parallel.total_steps),
              2)
        .cell(speedup, 2);
    table.end_row();
    std::printf("%s\n", table.render().c_str());
    // SMT runners can cap 4-thread scaling below the nominal core count;
    // SPEEDQM_SHARDED_MIN_SPEEDUP overrides the floor where that is a
    // measured property of the runner rather than a regression.
    double floor = 3.0;
    if (const char* env = std::getenv("SPEEDQM_SHARDED_MIN_SPEEDUP")) {
      floor = std::atof(env);
    }
    std::printf("hardware threads: %u — scaling gate ACTIVE (floor %.2fx)\n",
                hw, floor);
    char claim[128];
    std::snprintf(claim, sizeof(claim),
                  "S=4 shards on 4 workers >= %.2fx serving throughput of "
                  "S=1 (T=32 mix, measured %.2fx)", floor, speedup);
    ok &= shape_check(claim, speedup >= floor);
  } else {
    std::printf("%s\n", table.render().c_str());
    std::printf("[SHAPE-SKIP] S=4 >= 3x scaling gate needs >= 4 hardware "
                "threads (found %u) — CI runners enforce it\n", hw);
  }
  return ok;
}

/// Seconds of setup per admitted task: constructing the server (pool
/// build) plus serve()'s initial placement, i.e. everything outside
/// serve()'s wall window, for a one-cycle run. Min over `repeats`.
double setup_s_per_task(std::size_t tasks, int repeats) {
  double best = 0;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    ShardedServerSpec spec = server_spec(8, 1, 1);
    spec.mix.num_tasks = tasks;
    const auto t0 = std::chrono::steady_clock::now();
    ShardedServer server(spec);
    const ServingSummary summary = server.serve();
    const double total = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    const double per_task = (total - summary.wall_seconds) /
                            static_cast<double>(std::max<std::size_t>(
                                1, summary.admitted));
    if (repeat == 0 || per_task < best) best = per_task;
  }
  return best;
}

/// Gate 4: setup per admitted task stays flat from T = 512 to T = 4096.
bool check_setup_scaling() {
  const double small = setup_s_per_task(512, 3);
  const double large = setup_s_per_task(4096, 3);
  const double ratio = large / small;
  std::printf("\nsetup per admitted task (S=8, most-slack): T=512 %.1f us, "
              "T=4096 %.1f us\n", small * 1e6, large * 1e6);
  char claim[160];
  std::snprintf(claim, sizeof(claim),
                "setup per admitted task at T=4096 <= 2.00x T=512 (S=8, "
                "most-slack, measured %.2fx)", ratio);
  return shape_check(claim, ratio <= 2.0);
}

/// Gate 5: a shard rebuild's cost per composite action stays flat from 32
/// to 256 members (one pool of 256 tasks; the 32-member shard is its first
/// 32 tasks).
bool check_rebuild_scaling() {
  MultiTaskMixSpec spec = pool_spec();
  spec.num_tasks = 256;
  const auto pool = std::make_shared<TaskPool>(spec);
  // ns per composite action of one build + teardown of `count` members.
  const auto rebuild_ns_per_action = [&](std::size_t count) {
    std::vector<std::size_t> members(count);
    for (std::size_t i = 0; i < count; ++i) members[i] = i;
    const TimeNs budget = pool->budget_for(members);
    const auto t0 = std::chrono::steady_clock::now();
    auto mix = std::make_unique<MultiTaskMix>(pool, members, budget);
    auto manager = std::make_unique<BatchMultiTaskManager>(mix->composed(),
                                                           mix->engines());
    const auto actions = static_cast<double>(mix->composed().app().size());
    manager.reset();
    mix.reset();
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0)
               .count() /
           actions;
  };
  double small = 0;
  double large = 0;
  for (int run = 0; run < 7; ++run) {
    const double s32 = rebuild_ns_per_action(32);
    const double s256 = rebuild_ns_per_action(256);
    if (run == 0 || s32 < small) small = s32;
    if (run == 0 || s256 < large) large = s256;
  }
  const double ratio = large / small;
  std::printf("shard rebuild per composite action: 32 members %.0f ns, "
              "256 members %.0f ns\n", small, large);
  char claim[160];
  std::snprintf(claim, sizeof(claim),
                "shard rebuild ns per composite action at 256 members <= "
                "1.50x at 32 members (measured %.2fx)", ratio);
  return shape_check(claim, ratio <= 1.5);
}

}  // namespace

int main() {
  std::printf("=== S1 — sharded multi-clock serving with admission control "
              "===\n");
  std::printf("pool: %zu tasks (scaled MPEG + synthetic), shard budget = "
              "full-mix budget / S, most-slack placement\n\n",
              kPoolTasks);

  std::vector<DecisionBenchRecord> records;
  bool ok = true;
  ok &= check_degenerate_equivalence(32);
  ok &= check_admission_determinism();
  ok &= measure_and_gate_scaling(records);
  ok &= check_setup_scaling();
  ok &= check_rebuild_scaling();

  write_decision_bench_json("BENCH_sharded.json", "sharded_serving", records);
  std::printf("\nwrote BENCH_sharded.json (%zu records)\n", records.size());
  return ok ? 0 : 1;
}

// Tests for the sharded serving layer (src/serve/):
//   * S = 1, no arrivals: the sharded path is bit-identical to running
//     BatchMultiTaskManager over MultiTaskMix directly (summary fields,
//     decision ops, step-for-step quality stream);
//   * TaskPool/MultiTaskMix refactor: pool-assembled all-members mixes
//     reproduce the historical spec-constructed mix exactly;
//   * admission decisions are deterministic and identical across worker
//     counts, with rejections on overload;
//   * zero-sized specs (shards, cycles, tasks, budget factor) throw
//     contract_error;
//   * arrival scenarios: segmented runs with joins/leaves stay
//     deterministic and feasible-by-construction schedules validate;
//   * executor resume hand-off: a run split at a cycle boundary with
//     start_cycle/start_time equals the unsplit run;
//   * the server's concrete shard loop equals the generic run_cyclic over
//     the same memberships under S = 4 churn, and composed sources never
//     move the pool's trace cursors.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>

#include "core/batch_engine.hpp"
#include "core/feasibility.hpp"
#include "serve/admission.hpp"
#include "serve/sharded_server.hpp"
#include "sim/metrics.hpp"
#include "support/contract.hpp"
#include "workload/arrivals.hpp"
#include "workload/scenarios.hpp"
#include "workload/trace_source.hpp"

namespace speedqm {
namespace {

MultiTaskMixSpec small_mix_spec(std::size_t tasks, std::uint64_t seed) {
  MultiTaskMixSpec spec;
  spec.num_tasks = tasks;
  spec.seed = seed;
  spec.num_cycles = 8;
  spec.min_task_actions = 4;
  spec.max_task_actions = 24;
  return spec;
}

/// Field-by-field RunSummary equality (bit-exact doubles: both sides must
/// have folded the identical step stream through identical arithmetic).
void expect_summaries_identical(const RunSummary& a, const RunSummary& b) {
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.manager_calls, b.manager_calls);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.infeasible, b.infeasible);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.mean_quality, b.mean_quality);
  EXPECT_EQ(a.overhead_pct, b.overhead_pct);
  EXPECT_EQ(a.mean_overhead_per_action_us, b.mean_overhead_per_action_us);
  EXPECT_EQ(a.total_time_s, b.total_time_s);
  EXPECT_EQ(a.smoothness.quality_stddev, b.smoothness.quality_stddev);
  EXPECT_EQ(a.smoothness.switches, b.smoothness.switches);
  EXPECT_EQ(a.smoothness.max_jump, b.smoothness.max_jump);
  EXPECT_EQ(a.relax_histogram, b.relax_histogram);
  EXPECT_EQ(a.decision_latency_ns, b.decision_latency_ns);
}

// --- TaskPool refactor ------------------------------------------------------

TEST(TaskPool, AllMembersAssemblyReproducesSpecConstructedMix) {
  const MultiTaskMixSpec spec = small_mix_spec(5, 99);
  MultiTaskMix direct(spec);

  auto pool = std::make_shared<TaskPool>(spec);
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < pool->size(); ++i) all.push_back(i);
  MultiTaskMix pooled(pool, all);

  EXPECT_EQ(direct.budget(), pooled.budget());
  EXPECT_EQ(direct.num_tasks(), pooled.num_tasks());
  ASSERT_EQ(direct.composed().app().size(), pooled.composed().app().size());
  // Identical composed schedules and identical controller models: compare
  // the engines' tD at the start state across the quality axis.
  for (std::size_t task = 0; task < direct.num_tasks(); ++task) {
    const PolicyEngine& de = *direct.engines()[task];
    const PolicyEngine& pe = *pooled.engines()[task];
    ASSERT_EQ(de.num_states(), pe.num_states());
    for (Quality q = 0; q < de.num_levels(); ++q) {
      EXPECT_EQ(de.td_online(0, q), pe.td_online(0, q));
    }
  }
}

TEST(TaskPool, BudgetForSubsetIsOrderConsistent) {
  const MultiTaskMixSpec spec = small_mix_spec(6, 7);
  TaskPool pool(spec);
  const TimeNs whole = pool.budget_for({0, 1, 2, 3, 4, 5});
  const TimeNs front = pool.budget_for({0, 1, 2});
  const TimeNs back = pool.budget_for({3, 4, 5});
  EXPECT_GT(front, 0);
  EXPECT_GT(back, 0);
  // budget_factor scales each subtotal; the split sums to within rounding.
  EXPECT_NEAR(static_cast<double>(front + back), static_cast<double>(whole),
              2.0);
}

TEST(TaskPool, ComposedSourceReadsLeaveThePoolTracesUntouched) {
  const MultiTaskMixSpec spec = small_mix_spec(4, 12);
  auto pool = std::make_shared<TaskPool>(spec);
  MultiTaskMix mix(pool, {2, 0, 3});
  ComposedCyclicSource& source = mix.source();
  const int nq = mix.composed().timing().num_levels();
  for (std::size_t cycle = 0; cycle < 2 * source.num_cycles(); ++cycle) {
    source.set_cycle(cycle % source.num_cycles());
    for (ActionIndex i = 0; i < mix.composed().app().size(); ++i) {
      const TaskRef& ref = mix.composed().origin(i);
      const TraceTimeSource& trace = pool->trace(mix.members()[ref.task]);
      for (Quality q = 0; q < nq; ++q) {
        ASSERT_EQ(source.actual_time(i, q),
                  trace.at(cycle % trace.num_cycles(), ref.local_action, q))
            << "cycle " << cycle << " action " << i << " q " << q;
      }
    }
  }
  // Selecting cycles on the composed source never moved a pool trace.
  for (std::size_t task = 0; task < pool->size(); ++task) {
    EXPECT_EQ(pool->trace(task).cycle(), 0u) << "task " << task;
  }
}

// --- S = 1 differential -----------------------------------------------------

TEST(ShardedServer, SingleShardBitIdenticalToDirectBatchManager) {
  const MultiTaskMixSpec mix_spec = small_mix_spec(6, 20070730);
  const std::size_t cycles = 12;

  // Direct path: the PR-3 serving architecture.
  MultiTaskMix mix(mix_spec);
  BatchMultiTaskManager manager(mix.composed(), mix.engines());
  RunSummaryAccumulator acc("direct");
  ExecutorOptions opts = mix.executor_options(cycles);
  opts.retain_steps = false;
  opts.retain_cycles = false;
  opts.sink = &acc;
  const RunResult run = run_cyclic(mix.composed().app(), manager, mix.source(),
                                   opts);
  const RunSummary direct = acc.finish();

  // Sharded path, degenerate S = 1.
  ShardedServerSpec spec;
  spec.mix = mix_spec;
  spec.num_shards = 1;
  spec.num_workers = 1;
  spec.cycles = cycles;
  ShardedServer server(spec);
  EXPECT_EQ(server.shard_budget(), mix.budget());
  const ServingSummary serving = server.serve();

  ASSERT_EQ(serving.shards.size(), 1u);
  EXPECT_EQ(serving.admitted, mix_spec.num_tasks);
  EXPECT_EQ(serving.rejected, 0u);
  expect_summaries_identical(serving.shards[0].summary, direct);
  EXPECT_EQ(serving.shards[0].clock, run.total_time);
  EXPECT_EQ(serving.total_steps, direct.total_steps);
  EXPECT_EQ(serving.mean_quality, direct.mean_quality);
}

// --- Concrete shard loop vs generic run_cyclic -----------------------------

TEST(ShardedServer, MultiShardChurnMatchesGenericReplayOfItsMemberships) {
  // S = 4 with joins and leaves: every shard runs several segments through
  // the server's concrete step loop. Replaying the same memberships (taken
  // from the server's own admission log) through the generic run_cyclic
  // must reproduce each shard's summary and clock bit for bit.
  ShardedServerSpec spec;
  spec.mix = small_mix_spec(12, 404);
  spec.num_shards = 4;
  spec.num_workers = 2;
  spec.cycles = 24;
  spec.initial_tasks = 8;
  spec.placement = PlacementPolicy::kMostSlack;
  const ArrivalSchedule schedule =
      make_arrival_schedule(12, spec.initial_tasks, spec.cycles, 10, 31);
  ShardedServer server(spec, schedule);
  const TimeNs budget = server.shard_budget();
  const ServingSummary served = server.serve();

  auto pool = std::make_shared<TaskPool>(spec.mix);
  struct ReplayShard {
    std::vector<std::size_t> members;
    std::unique_ptr<MultiTaskMix> mix;
    std::unique_ptr<BatchMultiTaskManager> manager;
    RunSummaryAccumulator acc{"replay"};
    TimeNs clock = 0;
    std::size_t rebuilds = 0;
    bool dirty = true;
  };
  std::vector<ReplayShard> shards(spec.num_shards);
  std::size_t next_decision = 0;
  const auto apply_join = [&](std::size_t task) {
    ASSERT_LT(next_decision, served.admissions.size());
    const AdmissionDecision& d = served.admissions[next_decision++];
    ASSERT_EQ(d.task, task);
    if (!d.admitted) return;
    shards[d.shard].members.push_back(task);
    shards[d.shard].dirty = true;
  };
  for (std::size_t task = 0; task < spec.initial_tasks; ++task) {
    apply_join(task);
  }

  std::vector<std::size_t> cuts;
  for (const std::size_t b : schedule.boundaries()) {
    if (b > 0 && b < spec.cycles) cuts.push_back(b);
  }
  cuts.push_back(spec.cycles);
  std::size_t cursor = 0;
  for (const std::size_t next : cuts) {
    for (ReplayShard& shard : shards) {
      if (shard.dirty) {
        shard.manager.reset();
        shard.mix.reset();
        if (!shard.members.empty()) {
          shard.mix =
              std::make_unique<MultiTaskMix>(pool, shard.members, budget);
          shard.manager = std::make_unique<BatchMultiTaskManager>(
              shard.mix->composed(), shard.mix->engines());
          ++shard.rebuilds;
        }
        shard.dirty = false;
      }
      if (!shard.mix) continue;
      ExecutorOptions opts = shard.mix->executor_options(next - cursor);
      opts.retain_steps = false;
      opts.retain_cycles = false;
      opts.sink = &shard.acc;
      opts.start_cycle = cursor;
      opts.start_time = shard.clock;
      QualityManager& manager = *shard.manager;
      CyclicTimeSource& source = shard.mix->source();
      shard.clock =
          run_cyclic(shard.mix->composed().app(), manager, source, opts)
              .total_time;
    }
    cursor = next;
    if (cursor >= spec.cycles) break;
    for (const ArrivalEvent& event : schedule.events_at(cursor)) {
      if (event.join) {
        apply_join(event.task);
        continue;
      }
      for (ReplayShard& shard : shards) {
        auto it = std::find(shard.members.begin(), shard.members.end(),
                            event.task);
        if (it != shard.members.end()) {
          shard.members.erase(it);
          shard.dirty = true;
          break;
        }
      }
    }
  }
  EXPECT_EQ(next_decision, served.admissions.size());

  ASSERT_EQ(served.shards.size(), shards.size());
  std::size_t segmented_shards = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_EQ(served.shards[s].members, shards[s].members);
    EXPECT_EQ(served.shards[s].rebuilds, shards[s].rebuilds);
    expect_summaries_identical(served.shards[s].summary, shards[s].acc.finish());
    EXPECT_EQ(served.shards[s].clock, shards[s].clock);
    if (shards[s].rebuilds > 1) ++segmented_shards;
  }
  // The schedule really did split shards into several segments.
  EXPECT_GE(segmented_shards, 2u);
  EXPECT_GE(cuts.size(), 3u);
}

// --- Admission --------------------------------------------------------------

TEST(Admission, DecisionsIdenticalAcrossWorkerCounts) {
  ArrivalSchedule schedule =
      make_arrival_schedule(/*pool_tasks=*/10, /*initial_tasks=*/6,
                            /*cycles=*/16, /*churn_events=*/8, /*seed=*/42);
  ShardedServerSpec spec;
  spec.mix = small_mix_spec(10, 11);
  spec.num_shards = 3;
  spec.cycles = 16;
  spec.initial_tasks = 6;

  ShardedServerSpec one = spec;
  one.num_workers = 1;
  ShardedServerSpec many = spec;
  many.num_workers = 4;

  const ServingSummary a = ShardedServer(one, schedule).serve();
  const ServingSummary b = ShardedServer(many, schedule).serve();

  ASSERT_EQ(a.admissions.size(), b.admissions.size());
  for (std::size_t i = 0; i < a.admissions.size(); ++i) {
    EXPECT_EQ(a.admissions[i].task, b.admissions[i].task);
    EXPECT_EQ(a.admissions[i].cycle, b.admissions[i].cycle);
    EXPECT_EQ(a.admissions[i].admitted, b.admissions[i].admitted);
    EXPECT_EQ(a.admissions[i].shard, b.admissions[i].shard);
    EXPECT_EQ(a.admissions[i].slack, b.admissions[i].slack);
    EXPECT_EQ(a.admissions[i].reason, b.admissions[i].reason);
  }
  EXPECT_EQ(a.leaves, b.leaves);
  // The whole serving report (minus wall clock) is interleaving-invariant.
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    expect_summaries_identical(a.shards[s].summary, b.shards[s].summary);
    EXPECT_EQ(a.shards[s].members, b.shards[s].members);
    EXPECT_EQ(a.shards[s].clock, b.shards[s].clock);
  }
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.mean_quality, b.mean_quality);
  EXPECT_EQ(a.total_ops, b.total_ops);
}

TEST(Admission, OverloadIsRejectedAndFeasibilityGuarded) {
  // A tiny budget slice (many shards over a small pool, then joining
  // everything into shard 0's capacity) must eventually reject.
  const MultiTaskMixSpec mix_spec = small_mix_spec(8, 3);
  auto pool = std::make_shared<TaskPool>(mix_spec);
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < pool->size(); ++i) all.push_back(i);
  // Capacity for roughly one quarter of the pool.
  const TimeNs budget = pool->budget_for(all) / 4;
  AdmissionController admission(pool, budget);

  std::vector<std::vector<std::size_t>> shards(1);
  std::size_t admitted = 0, rejected = 0;
  for (std::size_t task = 0; task < pool->size(); ++task) {
    const AdmissionDecision d = admission.admit(task, shards, 0);
    if (d.admitted) {
      shards[0].push_back(task);
      ++admitted;
      EXPECT_GE(d.slack, 0);
      // The accepted membership really is feasible.
      EXPECT_TRUE(admission.evaluate(shards[0]).feasible);
    } else {
      ++rejected;
      EXPECT_LT(d.slack, 0);
    }
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Admission, PlacementPoliciesDifferButBothStayFeasible) {
  const MultiTaskMixSpec mix_spec = small_mix_spec(12, 17);
  auto pool = std::make_shared<TaskPool>(mix_spec);
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < pool->size(); ++i) all.push_back(i);
  const TimeNs budget = pool->budget_for(all) / 3;

  for (const PlacementPolicy policy :
       {PlacementPolicy::kBestFit, PlacementPolicy::kMostSlack}) {
    AdmissionController admission(pool, budget, policy);
    std::vector<std::vector<std::size_t>> shards(3);
    for (std::size_t task = 0; task < pool->size(); ++task) {
      const AdmissionDecision d = admission.admit(task, shards, 0);
      if (d.admitted) shards[d.shard].push_back(task);
    }
    for (const auto& members : shards) {
      if (!members.empty()) {
        EXPECT_TRUE(admission.evaluate(members).feasible);
      }
    }
    if (policy == PlacementPolicy::kMostSlack) {
      // Worst-fit must spread: no empty shard while another holds the
      // whole admitted set.
      std::size_t nonempty = 0;
      for (const auto& members : shards) nonempty += members.empty() ? 0 : 1;
      EXPECT_EQ(nonempty, shards.size());
    }
  }
}

TEST(MixFeasibility, ReportsCriticalTaskAndUniformQuality) {
  const MultiTaskMixSpec mix_spec = small_mix_spec(4, 8);
  MultiTaskMix mix(mix_spec);
  const MixFeasibilityReport report = analyze_mix_feasibility(mix.engines());
  EXPECT_TRUE(report.feasible);
  EXPECT_GE(report.min_qmin_slack, 0);
  EXPECT_LT(report.critical_task, mix.num_tasks());
  EXPECT_GE(report.max_uniform_quality, 0);
  ASSERT_EQ(report.tasks.size(), mix.num_tasks());
  EXPECT_EQ(report.tasks[report.critical_task].qmin_slack,
            report.min_qmin_slack);
  EXPECT_THROW(analyze_mix_feasibility({}), contract_error);
}

// --- Arrival schedules ------------------------------------------------------

TEST(Arrivals, GeneratedSchedulesValidateAndSegment) {
  const ArrivalSchedule schedule = make_arrival_schedule(
      /*pool_tasks=*/12, /*initial_tasks=*/8, /*cycles=*/32,
      /*churn_events=*/10, /*seed=*/123);
  EXPECT_FALSE(schedule.empty());
  const auto boundaries = schedule.boundaries();
  for (std::size_t i = 1; i < boundaries.size(); ++i) {
    EXPECT_LT(boundaries[i - 1], boundaries[i]);
  }
  std::size_t counted = 0;
  for (const std::size_t b : boundaries) counted += schedule.events_at(b).size();
  EXPECT_EQ(counted, schedule.events().size());
}

TEST(Arrivals, InvalidScriptsThrow) {
  // Join of a task that is already present.
  EXPECT_THROW(
      ArrivalSchedule({ArrivalEvent{4, 0, true}}, /*pool_tasks=*/4,
                      /*initial_tasks=*/2),
      contract_error);
  // Leave of an absent task.
  EXPECT_THROW(
      ArrivalSchedule({ArrivalEvent{4, 3, false}}, /*pool_tasks=*/4,
                      /*initial_tasks=*/2),
      contract_error);
  // Task outside the pool.
  EXPECT_THROW(
      ArrivalSchedule({ArrivalEvent{4, 9, true}}, /*pool_tasks=*/4,
                      /*initial_tasks=*/2),
      contract_error);
}

TEST(ShardedServer, ZeroSizedSpecsThrowContractError) {
  ShardedServerSpec base;
  base.mix = small_mix_spec(4, 3);
  base.num_shards = 2;
  base.cycles = 4;
  const auto rejected = [&base](void (*edit)(ShardedServerSpec&)) {
    ShardedServerSpec spec = base;
    edit(spec);
    EXPECT_THROW(ShardedServer{spec}, contract_error);
  };
  rejected([](ShardedServerSpec& s) { s.num_shards = 0; });
  rejected([](ShardedServerSpec& s) { s.cycles = 0; });
  rejected([](ShardedServerSpec& s) { s.mix.num_tasks = 0; });
  rejected([](ShardedServerSpec& s) { s.mix.budget_factor = 0.0; });
  rejected([](ShardedServerSpec& s) { s.mix.budget_factor = -1.0; });
  rejected([](ShardedServerSpec& s) {
    s.mix.budget_factor = std::numeric_limits<double>::infinity();
  });
  rejected([](ShardedServerSpec& s) {
    s.mix.budget_factor = std::numeric_limits<double>::quiet_NaN();
  });
  // The base spec itself is accepted.
  EXPECT_NO_THROW(ShardedServer{base});
}

TEST(Arrivals, ServerRunsJoinLeaveScenarioDeterministically) {
  ShardedServerSpec spec;
  spec.mix = small_mix_spec(8, 77);
  spec.num_shards = 2;
  spec.num_workers = 1;
  spec.cycles = 20;
  spec.initial_tasks = 5;
  const ArrivalSchedule schedule = make_arrival_schedule(
      8, spec.initial_tasks, spec.cycles, 6, 9);

  const ServingSummary a = ShardedServer(spec, schedule).serve();
  const ServingSummary b = ShardedServer(spec, schedule).serve();
  EXPECT_GT(a.total_steps, 0u);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.mean_quality, b.mean_quality);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.admissions.size(), b.admissions.size());
  // Rebuild counters reflect the segmented reconfiguration.
  std::size_t rebuilds = 0;
  for (const auto& shard : a.shards) rebuilds += shard.rebuilds;
  EXPECT_GT(rebuilds, a.shards.size());  // at least one mid-run rebuild
}

// --- Executor resume hand-off -----------------------------------------------

TEST(ExecutorHandoff, SplitRunEqualsUnsplitRun) {
  const MultiTaskMixSpec mix_spec = small_mix_spec(3, 55);
  const std::size_t cycles = 10;
  const std::size_t split = 4;

  MultiTaskMix mix_a(mix_spec);
  BatchMultiTaskManager manager_a(mix_a.composed(), mix_a.engines());
  RunSummaryAccumulator acc_a("unsplit");
  ExecutorOptions opts = mix_a.executor_options(cycles);
  opts.retain_steps = false;
  opts.retain_cycles = false;
  opts.sink = &acc_a;
  const RunResult whole =
      run_cyclic(mix_a.composed().app(), manager_a, mix_a.source(), opts);

  MultiTaskMix mix_b(mix_spec);
  BatchMultiTaskManager manager_b(mix_b.composed(), mix_b.engines());
  RunSummaryAccumulator acc_b("split");
  ExecutorOptions first = mix_b.executor_options(split);
  first.retain_steps = false;
  first.retain_cycles = false;
  first.sink = &acc_b;
  const RunResult head =
      run_cyclic(mix_b.composed().app(), manager_b, mix_b.source(), first);
  ExecutorOptions second = mix_b.executor_options(cycles - split);
  second.retain_steps = false;
  second.retain_cycles = false;
  second.sink = &acc_b;
  second.start_cycle = split;
  second.start_time = head.total_time;
  const RunResult tail =
      run_cyclic(mix_b.composed().app(), manager_b, mix_b.source(), second);

  EXPECT_EQ(tail.total_time, whole.total_time);
  expect_summaries_identical(acc_a.finish(), acc_b.finish());
}

}  // namespace
}  // namespace speedqm

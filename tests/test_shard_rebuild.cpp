// Differential tests for the shard-rebuild path: the pieces a membership
// change rebuilds (serve/ShardedServer, MultiTaskMix) against the
// straightforward implementations they replaced, kept here as oracles:
//   * compose_tasks (T-way heap merge) against the O(N·T) linear-scan
//     interleave over TimingModelBuilder rows: composite names, deadlines,
//     mapping, Cav/Cwc and composite_index, over random task sets with
//     T in {1, 2, 3, 8, 32, 300} — random sizes, equal sizes, sizes that
//     are multiples of each other (heavy ties) and size-1 tasks;
//   * build_member_controllers (one-pass margins, mix Σ Cav summed once)
//     against the two-model chain inflate_for_coexistence →
//     inflate_for_overhead, under every coexistence_margin ×
//     inflate_overhead setting, member sets of 1 to 300 tasks in random
//     order, including equal-size pools;
//   * the tabled engine's arena rows (compiled in place through
//     td_table_into) against td_online over the oracle's models, and
//     td_table_into against td_table and td_online for the mixed, safe
//     and average policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/multi_task.hpp"
#include "core/policy.hpp"
#include "sim/overhead_inflation.hpp"
#include "workload/scenarios.hpp"

namespace speedqm {
namespace {

// --- Oracles ---------------------------------------------------------------

struct OracleComposition {
  std::vector<std::string> names;
  std::vector<TimeNs> deadlines;
  std::vector<TaskRef> mapping;
  std::unique_ptr<TimingModel> timing;
};

/// The linear-scan interleave: at every position, scan all tasks for the
/// smallest completed fraction (ties to the lowest index); one Cav/Cwc
/// vector pair per action through TimingModelBuilder.
OracleComposition oracle_compose(const std::vector<TaskSpec>& tasks) {
  const int nq = tasks.front().timing->num_levels();
  ActionIndex total = 0;
  for (const auto& t : tasks) total += t.app->size();
  OracleComposition out;
  TimingModelBuilder builder(nq);
  std::vector<ActionIndex> next(tasks.size(), 0);
  for (ActionIndex emitted = 0; emitted < total; ++emitted) {
    std::size_t pick = tasks.size();
    double best_fraction = 2.0;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (next[t] >= tasks[t].app->size()) continue;
      const double fraction = static_cast<double>(next[t]) /
                              static_cast<double>(tasks[t].app->size());
      if (fraction < best_fraction) {
        best_fraction = fraction;
        pick = t;
      }
    }
    const ActionIndex local = next[pick]++;
    const auto& task = tasks[pick];
    out.names.push_back(task.name + "/" + task.app->name(local));
    out.deadlines.push_back(task.app->deadline(local));
    out.mapping.push_back(TaskRef{pick, local});
    std::vector<TimeNs> cav(static_cast<std::size_t>(nq));
    std::vector<TimeNs> cwc(static_cast<std::size_t>(nq));
    for (Quality q = 0; q < nq; ++q) {
      cav[static_cast<std::size_t>(q)] = task.timing->cav(local, q);
      cwc[static_cast<std::size_t>(q)] = task.timing->cwc(local, q);
    }
    builder.action(cav, cwc);
  }
  out.timing = std::make_unique<TimingModel>(std::move(builder).build());
  return out;
}

/// The coexistence margin as one model per member: every action's Cav and
/// Cwc raised by Σ_{j≠k} total Cav_j(q) / n_k, summed member by member in
/// double.
TimingModel oracle_coexistence(const TimingModel& own, std::size_t task,
                               const std::vector<const TimingModel*>& all) {
  const ActionIndex n = own.num_actions();
  const int nq = own.num_levels();
  const auto nq_s = static_cast<std::size_t>(nq);
  std::vector<TimeNs> margin(nq_s, 0);
  for (Quality q = 0; q < nq; ++q) {
    double others = 0;
    for (std::size_t other = 0; other < all.size(); ++other) {
      if (other == task) continue;
      others += static_cast<double>(all[other]->total_cav(q));
    }
    margin[static_cast<std::size_t>(q)] =
        static_cast<TimeNs>(others / static_cast<double>(n) + 0.5);
  }
  std::vector<TimeNs> cav(n * nq_s);
  std::vector<TimeNs> cwc(n * nq_s);
  for (ActionIndex i = 0; i < n; ++i) {
    for (Quality q = 0; q < nq; ++q) {
      const std::size_t k = i * nq_s + static_cast<std::size_t>(q);
      cav[k] = own.cav(i, q) + margin[static_cast<std::size_t>(q)];
      cwc[k] = own.cwc(i, q) + margin[static_cast<std::size_t>(q)];
    }
  }
  return TimingModel(n, nq, std::move(cav), std::move(cwc));
}

/// The two-model chain: coexistence margin, then §2.2.2 overhead.
std::vector<TimingModel> oracle_models(const TaskPool& pool,
                                       const std::vector<std::size_t>& members,
                                       const OverheadModel& overhead) {
  const MultiTaskMixSpec& spec = pool.spec();
  std::vector<const TimingModel*> raw;
  for (const std::size_t task : members) raw.push_back(&pool.raw_timing(task));
  const BatchCallEstimate estimate(spec.num_levels);
  std::vector<TimingModel> out;
  for (std::size_t slot = 0; slot < members.size(); ++slot) {
    TimingModel model = spec.coexistence_margin
                            ? oracle_coexistence(*raw[slot], slot, raw)
                            : *raw[slot];
    if (spec.inflate_overhead) {
      model = inflate_for_overhead(model, overhead, estimate);
    }
    out.push_back(std::move(model));
  }
  return out;
}

// --- Helpers ---------------------------------------------------------------

void expect_same_model(const TimingModel& got, const TimingModel& want) {
  ASSERT_EQ(got.num_actions(), want.num_actions());
  ASSERT_EQ(got.num_levels(), want.num_levels());
  for (ActionIndex i = 0; i < got.num_actions(); ++i) {
    for (Quality q = 0; q < got.num_levels(); ++q) {
      ASSERT_EQ(got.cav(i, q), want.cav(i, q)) << "action " << i << " q " << q;
      ASSERT_EQ(got.cwc(i, q), want.cwc(i, q)) << "action " << i << " q " << q;
    }
  }
}

void expect_same_composition(const ComposedSystem& got,
                             const OracleComposition& want) {
  const ActionIndex n = want.names.size();
  ASSERT_EQ(got.app().size(), n);
  for (ActionIndex i = 0; i < n; ++i) {
    ASSERT_EQ(got.app().name(i), want.names[i]) << "action " << i;
    ASSERT_EQ(got.app().deadline(i), want.deadlines[i]) << "action " << i;
    ASSERT_EQ(got.origin(i).task, want.mapping[i].task) << "action " << i;
    ASSERT_EQ(got.origin(i).local_action, want.mapping[i].local_action)
        << "action " << i;
    ASSERT_EQ(got.composite_index(want.mapping[i].task,
                                  want.mapping[i].local_action),
              i);
  }
  expect_same_model(got.timing(), *want.timing);
}

/// A random task: Definition-1-valid Cav/Cwc rows and a deadline on the
/// last action plus, sometimes, intra-task milestones.
struct RandomTask {
  std::unique_ptr<ScheduledApp> app;
  std::unique_ptr<TimingModel> timing;
};

RandomTask random_task(std::mt19937_64& rng, ActionIndex n, int nq,
                       std::size_t id) {
  std::vector<std::string> names;
  std::vector<TimeNs> deadlines(n, kTimePlusInf);
  std::vector<TimeNs> cav;
  std::vector<TimeNs> cwc;
  TimeNs horizon = 0;
  for (ActionIndex i = 0; i < n; ++i) {
    names.push_back("t" + std::to_string(id) + "a" + std::to_string(i));
    TimeNs c = 1 + static_cast<TimeNs>(rng() % 1000);
    TimeNs w = 0;
    for (Quality q = 0; q < nq; ++q) {
      c += static_cast<TimeNs>(rng() % 300);
      w = std::max(w, c) + static_cast<TimeNs>(rng() % 200);
      cav.push_back(c);
      cwc.push_back(w);
    }
    horizon += cwc.back();
    if (rng() % 8 == 0) deadlines[i] = horizon;
  }
  deadlines.back() = horizon + static_cast<TimeNs>(rng() % 1000);
  RandomTask t;
  t.app = std::make_unique<ScheduledApp>(std::move(names), std::move(deadlines));
  t.timing = std::make_unique<TimingModel>(n, nq, std::move(cav), std::move(cwc));
  return t;
}

enum class SizeMode { kRandom, kEqual, kMultiples, kWithSingletons };

ActionIndex draw_size(std::mt19937_64& rng, SizeMode mode, ActionIndex base) {
  switch (mode) {
    case SizeMode::kRandom: return 1 + rng() % 40;
    case SizeMode::kEqual: return base;
    case SizeMode::kMultiples: return base << (rng() % 4);  // base·{1,2,4,8}
    case SizeMode::kWithSingletons: return rng() % 3 == 0 ? 1 : 1 + rng() % 12;
  }
  return 1;
}

MultiTaskMixSpec pool_spec(std::size_t tasks, std::uint64_t seed,
                           bool coexistence, bool overhead) {
  MultiTaskMixSpec spec;
  spec.num_tasks = tasks;
  spec.seed = seed;
  spec.num_cycles = 1;
  spec.min_task_actions = 2;
  spec.max_task_actions = 20;
  spec.coexistence_margin = coexistence;
  spec.inflate_overhead = overhead;
  return spec;
}

std::vector<std::size_t> random_members(std::mt19937_64& rng,
                                        std::size_t pool_size,
                                        std::size_t count) {
  std::vector<std::size_t> members(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) members[i] = i;
  std::shuffle(members.begin(), members.end(), rng);
  members.resize(count);
  return members;
}

// --- compose_tasks ---------------------------------------------------------

TEST(ComposeDifferential, HeapMergeMatchesLinearScanInterleave) {
  std::mt19937_64 rng(20070326);
  std::size_t compositions = 0;
  for (const std::size_t T : {1u, 2u, 3u, 8u, 32u, 300u}) {
    for (const SizeMode mode : {SizeMode::kRandom, SizeMode::kEqual,
                                SizeMode::kMultiples,
                                SizeMode::kWithSingletons}) {
      const int rounds = T >= 300 ? 2 : 6;
      for (int round = 0; round < rounds; ++round) {
        const int nq = 2 + static_cast<int>(rng() % 6);
        const ActionIndex base = 1 + rng() % 6;
        std::vector<RandomTask> owned;
        std::vector<TaskSpec> specs;
        for (std::size_t t = 0; t < T; ++t) {
          owned.push_back(random_task(rng, draw_size(rng, mode, base), nq, t));
          specs.push_back(TaskSpec{"task" + std::to_string(t),
                                   owned.back().app.get(),
                                   owned.back().timing.get()});
        }
        SCOPED_TRACE("T=" + std::to_string(T) + " mode=" +
                     std::to_string(static_cast<int>(mode)) + " round=" +
                     std::to_string(round));
        const OracleComposition want = oracle_compose(specs);
        const ComposedSystem got = compose_tasks(specs);
        expect_same_composition(got, want);
        if (HasFatalFailure()) return;
        ++compositions;
      }
    }
  }
  EXPECT_EQ(compositions, 5u * 4u * 6u + 4u * 2u);
}

// --- build_member_controllers ----------------------------------------------

void check_controllers(const TaskPool& pool,
                       const std::vector<std::size_t>& members, TimeNs budget) {
  const OverheadModel overhead = OverheadModel::server_like();
  const MemberControllers got =
      build_member_controllers(pool, members, budget, overhead);
  const std::vector<TimingModel> want = oracle_models(pool, members, overhead);
  ASSERT_EQ(got.members, members);
  ASSERT_EQ(got.models.size(), members.size());
  for (std::size_t slot = 0; slot < members.size(); ++slot) {
    SCOPED_TRACE("slot " + std::to_string(slot));
    const ScheduledApp& raw = pool.raw_app(members[slot]);
    const ScheduledApp& app = *got.apps[slot];
    ASSERT_EQ(app.size(), raw.size());
    for (ActionIndex i = 0; i < app.size(); ++i) {
      ASSERT_EQ(app.name(i), raw.name(i));
      ASSERT_EQ(app.deadline(i), i + 1 == app.size() ? budget : kTimePlusInf);
    }
    expect_same_model(*got.models[slot], want[slot]);
    ASSERT_EQ(&got.engines[slot]->app(), got.apps[slot].get());
    ASSERT_EQ(&got.engines[slot]->timing(), got.models[slot].get());
    ASSERT_EQ(got.engines[slot]->kind(), PolicyKind::kMixed);
  }

  // The arena the tabled engine compiles in place, row for row against
  // the oracle models' online tD scans.
  BatchDecisionEngine engine(got.engine_ptrs());
  for (std::size_t slot = 0; slot < members.size(); ++slot) {
    const PolicyEngine oracle(*got.apps[slot], want[slot], PolicyKind::kMixed);
    for (StateIndex s = 0; s < oracle.num_states(); ++s) {
      for (Quality q = 0; q < oracle.num_levels(); ++q) {
        ASSERT_EQ(engine.td(slot, s, q), oracle.td_online(s, q))
            << "slot " << slot << " state " << s << " q " << q;
      }
    }
  }
}

TEST(ControllersDifferential, OnePassMarginsMatchTwoModelChain) {
  std::mt19937_64 rng(20070730);
  std::size_t checked = 0;
  for (const bool coexistence : {true, false}) {
    for (const bool overhead : {true, false}) {
      for (const bool equal_sizes : {false, true}) {
        MultiTaskMixSpec spec = pool_spec(300, 11 + checked, coexistence,
                                          overhead);
        if (equal_sizes) spec.min_task_actions = spec.max_task_actions = 6;
        const TaskPool pool(spec);
        const TimeNs shard = pool.budget_for(random_members(rng, 300, 300)) / 8;
        for (const std::size_t count : {1u, 2u, 7u, 40u, 300u}) {
          SCOPED_TRACE(std::string(coexistence ? "margin" : "no-margin") +
                       (overhead ? " overhead" : " no-overhead") +
                       (equal_sizes ? " equal" : " mixed") +
                       " members=" + std::to_string(count));
          check_controllers(pool, random_members(rng, 300, count), shard);
          if (HasFatalFailure()) return;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 2u * 2u * 2u * 5u);
}

TEST(ControllersDifferential, MixCompositionMatchesOracles) {
  // A whole shard mix: controllers and composition against both oracles.
  std::mt19937_64 rng(7);
  for (const bool coexistence : {true, false}) {
    for (const bool overhead : {true, false}) {
      for (const bool equal_sizes : {false, true}) {
      MultiTaskMixSpec spec = pool_spec(64, 23, coexistence, overhead);
      if (equal_sizes) spec.min_task_actions = spec.max_task_actions = 4;
      auto pool = std::make_shared<TaskPool>(spec);
      for (const std::size_t count : {1u, 5u, 33u, 64u}) {
        const std::vector<std::size_t> members =
            random_members(rng, pool->size(), count);
        const TimeNs budget = pool->budget_for(members);
        const MultiTaskMix mix(pool, members, budget);
        std::vector<TaskSpec> specs;
        const MemberControllers controllers = build_member_controllers(
            *pool, members, budget, mix.overhead());
        for (std::size_t slot = 0; slot < members.size(); ++slot) {
          specs.push_back(TaskSpec{pool->name(members[slot]),
                                   controllers.apps[slot].get(),
                                   &pool->raw_timing(members[slot])});
        }
        SCOPED_TRACE("members=" + std::to_string(count));
        expect_same_composition(mix.composed(), oracle_compose(specs));
        if (HasFatalFailure()) return;
        const std::vector<TimingModel> want =
            oracle_models(*pool, members, mix.overhead());
        const std::vector<const PolicyEngine*> engines = mix.engines();
        for (std::size_t slot = 0; slot < members.size(); ++slot) {
          expect_same_model(engines[slot]->timing(), want[slot]);
        }
      }
      }
    }
  }
}

// --- td_table_into ---------------------------------------------------------

TEST(TdTableInto, MatchesTdTableAndOnlineForEveryPolicy) {
  std::mt19937_64 rng(1189);
  TdTableScratch scratch;  // one scratch across engines of every size
  for (const PolicyKind kind :
       {PolicyKind::kMixed, PolicyKind::kSafe, PolicyKind::kAverage}) {
    for (int round = 0; round < 12; ++round) {
      const int nq = 2 + static_cast<int>(rng() % 6);
      const RandomTask task = random_task(rng, 1 + rng() % 60, nq, 0);
      const PolicyEngine engine(*task.app, *task.timing, kind);
      const std::size_t size =
          engine.num_states() * static_cast<std::size_t>(nq);
      // Guards around the written range must stay untouched.
      constexpr TimeNs kGuard = -123456789;
      std::vector<TimeNs> buffer(size + 2, kGuard);
      engine.td_table_into(buffer.data() + 1, scratch);
      EXPECT_EQ(buffer.front(), kGuard);
      EXPECT_EQ(buffer.back(), kGuard);
      const std::vector<TimeNs> table = engine.td_table();
      ASSERT_EQ(table.size(), size);
      for (StateIndex s = 0; s < engine.num_states(); ++s) {
        for (Quality q = 0; q < nq; ++q) {
          const std::size_t k = s * static_cast<std::size_t>(nq) +
                                static_cast<std::size_t>(q);
          ASSERT_EQ(buffer[1 + k], table[k]);
          ASSERT_EQ(table[k], engine.td_online(s, q))
              << to_string(kind) << " state " << s << " q " << q;
        }
      }
    }
  }
}

}  // namespace
}  // namespace speedqm

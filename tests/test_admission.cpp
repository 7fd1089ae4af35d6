// Tests for closed-form admission control (serve/AdmissionController):
//   * differential against the rebuild oracle: every member's controllers
//     rebuilt per evaluation (build_member_controllers +
//     analyze_mix_feasibility) and the placement rule re-derived from its
//     reports. Seeded random pools (T in {1, 2, 8, 64}) on S in {1, 3, 8}
//     shards, both placements, coexistence margin and overhead inflation
//     each on and off, budgets tight enough to reject; random join/leave
//     sequences compare every AdmissionDecision field, and evaluate()
//     matches the oracle's feasibility, slack and critical task on every
//     touched shard and on random member subsets in random order;
//   * contract errors for bad ids, duplicates, empty inputs, a null pool
//     and non-positive budgets.
//
// This binary links the production library (contracts compiled out under
// NDEBUG), so the contract tests pin checks admission keeps in every build.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/feasibility.hpp"
#include "serve/admission.hpp"
#include "support/contract.hpp"
#include "support/time.hpp"
#include "workload/scenarios.hpp"

namespace speedqm {
namespace {

using Shards = std::vector<std::vector<std::size_t>>;

MultiTaskMixSpec pool_spec(std::size_t tasks, std::uint64_t seed,
                           bool coexistence, bool overhead) {
  MultiTaskMixSpec spec;
  spec.num_tasks = tasks;
  spec.seed = seed;
  spec.num_cycles = 2;
  spec.min_task_actions = 4;
  spec.max_task_actions = 24;
  spec.coexistence_margin = coexistence;
  spec.inflate_overhead = overhead;
  return spec;
}

std::vector<std::size_t> iota_members(std::size_t count) {
  std::vector<std::size_t> members(count);
  for (std::size_t i = 0; i < count; ++i) members[i] = i;
  return members;
}

/// The rebuild path: every member's controller model, policy engine and
/// |Q| tD sweep rebuilt for this one member set.
MixFeasibilityReport oracle_evaluate(const TaskPool& pool,
                                     const std::vector<std::size_t>& members,
                                     TimeNs budget) {
  const MemberControllers controllers = build_member_controllers(
      pool, members, budget, OverheadModel::server_like());
  return analyze_mix_feasibility(controllers.engine_ptrs());
}

/// The placement rule over oracle reports: every shard evaluated with the
/// task appended, the policy's pick among feasible ones (ties to the
/// lowest index), priced against the chosen shard's before-slack.
AdmissionDecision oracle_admit(const TaskPool& pool, TimeNs budget,
                               PlacementPolicy policy, std::size_t task,
                               const Shards& shards, std::size_t cycle) {
  AdmissionDecision decision;
  decision.task = task;
  decision.cycle = cycle;
  TimeNs best_any = 0;
  std::size_t best_any_shard = 0;
  bool have_fit = false;
  TimeNs best_fit = 0;
  std::size_t best_fit_shard = 0;
  for (std::size_t shard = 0; shard < shards.size(); ++shard) {
    std::vector<std::size_t> candidate = shards[shard];
    candidate.push_back(task);
    const MixFeasibilityReport report = oracle_evaluate(pool, candidate, budget);
    if (shard == 0 || report.min_qmin_slack > best_any) {
      best_any = report.min_qmin_slack;
      best_any_shard = shard;
    }
    const bool better = policy == PlacementPolicy::kBestFit
                            ? report.min_qmin_slack < best_fit
                            : report.min_qmin_slack > best_fit;
    if (report.feasible && (!have_fit || better)) {
      have_fit = true;
      best_fit = report.min_qmin_slack;
      best_fit_shard = shard;
    }
  }
  if (have_fit) {
    decision.admitted = true;
    decision.shard = best_fit_shard;
    decision.slack = best_fit;
    const TimeNs before =
        shards[best_fit_shard].empty()
            ? budget
            : oracle_evaluate(pool, shards[best_fit_shard], budget)
                  .min_qmin_slack;
    decision.price = before - best_fit;
    decision.reason = "admitted to shard " + std::to_string(best_fit_shard) +
                      " (" + to_string(policy) + " slack " +
                      format_time(best_fit) + ")";
  } else {
    decision.shard = best_any_shard;
    decision.slack = best_any;
    decision.reason = "rejected: every shard would go infeasible (best slack " +
                      format_time(best_any) + " on shard " +
                      std::to_string(best_any_shard) + ")";
  }
  return decision;
}

void expect_same_decision(const AdmissionDecision& got,
                          const AdmissionDecision& want) {
  EXPECT_EQ(got.task, want.task);
  EXPECT_EQ(got.cycle, want.cycle);
  EXPECT_EQ(got.admitted, want.admitted);
  EXPECT_EQ(got.shard, want.shard);
  EXPECT_EQ(got.slack, want.slack);
  EXPECT_EQ(got.price, want.price);
  EXPECT_EQ(got.reason, want.reason);
}

void expect_same_slack(const AdmissionController& admission,
                       const TaskPool& pool,
                       const std::vector<std::size_t>& members) {
  const MixSlack got = admission.evaluate(members);
  const MixFeasibilityReport want =
      oracle_evaluate(pool, members, admission.budget());
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.min_qmin_slack, want.min_qmin_slack);
  EXPECT_EQ(got.critical_task, want.critical_task);
}

/// What the sweep exercised, so a silently degenerate setup fails.
struct Coverage {
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t leaves = 0;
  std::size_t positive_price = 0;
};

/// Random join/leave walk over one pool, shard count and policy.
void run_walk(const std::shared_ptr<TaskPool>& pool, TimeNs budget,
              std::size_t num_shards, PlacementPolicy policy,
              std::uint64_t seed, Coverage& coverage) {
  const AdmissionController admission(pool, budget, policy);
  std::mt19937_64 rng(seed);
  Shards shards(num_shards);
  const std::size_t steps = std::min<std::size_t>(3 * pool->size() + 4, 96);
  for (std::size_t step = 0; step < steps; ++step) {
    const std::size_t task = rng() % pool->size();
    std::size_t holder = num_shards;
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (std::find(shards[s].begin(), shards[s].end(), task) !=
          shards[s].end()) {
        holder = s;
      }
    }
    if (holder < num_shards) {
      auto& members = shards[holder];
      members.erase(std::find(members.begin(), members.end(), task));
      ++coverage.leaves;
      if (!members.empty()) expect_same_slack(admission, *pool, members);
      continue;
    }
    const AdmissionDecision got = admission.admit(task, shards, step);
    expect_same_decision(
        got, oracle_admit(*pool, budget, policy, task, shards, step));
    if (got.admitted) {
      ++coverage.admitted;
      if (got.price > 0) ++coverage.positive_price;
      shards[got.shard].push_back(task);
      expect_same_slack(admission, *pool, shards[got.shard]);
    } else {
      ++coverage.rejected;
    }
  }
}

TEST(AdmissionDifferential, DecisionsMatchTheRebuildOracle) {
  Coverage coverage;
  std::uint64_t seed = 1;
  for (const std::size_t tasks : {1u, 2u, 8u, 64u}) {
    for (const bool coexistence : {true, false}) {
      for (const bool overhead : {true, false}) {
        auto pool = std::make_shared<TaskPool>(
            pool_spec(tasks, 100 + tasks, coexistence, overhead));
        const TimeNs full = pool->budget_for(iota_members(tasks));
        for (const std::size_t num_shards : {1u, 3u, 8u}) {
          // A roomy split and two tight ones that reject.
          for (const double share : {1.0, 0.5, 0.2}) {
            const TimeNs budget = std::max<TimeNs>(
                1, static_cast<TimeNs>(static_cast<double>(full) * share) /
                       static_cast<TimeNs>(num_shards));
            for (const PlacementPolicy policy :
                 {PlacementPolicy::kBestFit, PlacementPolicy::kMostSlack}) {
              SCOPED_TRACE("T=" + std::to_string(tasks) +
                           " S=" + std::to_string(num_shards) +
                           " share=" + std::to_string(share) + " " +
                           to_string(policy) +
                           (coexistence ? " margin" : " no-margin") +
                           (overhead ? " overhead" : " no-overhead"));
              run_walk(pool, budget, num_shards, policy, ++seed, coverage);
              if (HasFailure()) return;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(coverage.admitted, 100u);
  EXPECT_GT(coverage.rejected, 100u);
  EXPECT_GT(coverage.leaves, 100u);
  EXPECT_GT(coverage.positive_price, 100u);
}

TEST(AdmissionDifferential, EvaluateMatchesOracleOnRandomSubsets) {
  std::mt19937_64 rng(20070326);
  for (const bool coexistence : {true, false}) {
    for (const bool overhead : {true, false}) {
      auto pool = std::make_shared<TaskPool>(
          pool_spec(64, 7, coexistence, overhead));
      // One shard's share of the pool budget, and a 64th of it, which
      // only the smaller tasks fit without a margin.
      const TimeNs full = pool->budget_for(iota_members(64));
      std::size_t infeasible = 0;
      for (const TimeNs budget : {full / 8, full / 64}) {
        const AdmissionController admission(pool, budget);
        for (int round = 0; round < 40; ++round) {
          std::vector<std::size_t> members = iota_members(64);
          std::shuffle(members.begin(), members.end(), rng);
          members.resize(1 + rng() % 24);
          expect_same_slack(admission, *pool, members);
          infeasible += admission.evaluate(members).feasible ? 0 : 1;
        }
      }
      EXPECT_GT(infeasible, 0u);
      EXPECT_LT(infeasible, 80u);
    }
  }
}

class AdmissionContract : public ::testing::Test {
 protected:
  std::shared_ptr<TaskPool> pool_ =
      std::make_shared<TaskPool>(pool_spec(4, 3, true, true));
  AdmissionController admission_{pool_, pool_->budget_for(iota_members(4))};
};

TEST_F(AdmissionContract, TaskOutsideThePoolThrows) {
  EXPECT_THROW(admission_.admit(4, Shards(2), 0), contract_error);
  EXPECT_THROW(admission_.admit(0, Shards{{1, 9}}, 0), contract_error);
  EXPECT_THROW(admission_.evaluate({0, 4}), contract_error);
}

TEST_F(AdmissionContract, DuplicateMemberThrows) {
  EXPECT_THROW(admission_.evaluate({1, 2, 1}), contract_error);
  EXPECT_THROW(admission_.admit(0, Shards{{0}}, 0), contract_error);
  EXPECT_THROW(admission_.admit(0, Shards{{1}, {2, 0}}, 0), contract_error);
  EXPECT_THROW(admission_.admit(0, Shards{{1}, {1}}, 0), contract_error);
  EXPECT_THROW(admission_.admit(0, Shards{{3, 3}}, 0), contract_error);
}

TEST_F(AdmissionContract, EveryCallChecksDuplicatesAfresh) {
  // The duplicate check reuses scratch across calls: a call that throws
  // midway, or lists a task, must not leave it listed for the next call.
  EXPECT_THROW(admission_.evaluate({1, 2, 1}), contract_error);
  EXPECT_NO_THROW(admission_.evaluate({1, 2}));
  EXPECT_NO_THROW(admission_.evaluate({2, 1, 3}));
  EXPECT_THROW(admission_.admit(0, Shards{{1}, {2, 0}}, 0), contract_error);
  EXPECT_NO_THROW(admission_.admit(0, Shards{{1}, {2}}, 0));
  EXPECT_NO_THROW(admission_.admit(3, Shards{{1, 0}, {2}}, 0));
  EXPECT_THROW(admission_.admit(3, Shards{{1, 0}, {2, 3}}, 0), contract_error);
}

TEST_F(AdmissionContract, EmptyInputsThrow) {
  EXPECT_THROW(admission_.admit(0, Shards{}, 0), contract_error);
  EXPECT_THROW(admission_.evaluate({}), contract_error);
  // An empty shard is a valid placement target.
  EXPECT_TRUE(admission_.admit(0, Shards(1), 0).admitted);
}

TEST_F(AdmissionContract, NullPoolAndNonPositiveBudgetThrow) {
  EXPECT_THROW(AdmissionController(nullptr, 1000), contract_error);
  EXPECT_THROW(AdmissionController(pool_, 0), contract_error);
  EXPECT_THROW(AdmissionController(pool_, -1), contract_error);
}

}  // namespace
}  // namespace speedqm

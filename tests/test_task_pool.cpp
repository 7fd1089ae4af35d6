// TaskPool spec validation, in every build. This binary links the
// production library (contracts compiled out under NDEBUG), so each test
// pins a check TaskPool keeps in Release too: before these checks, an
// inverted task-size range wrapped the size span and died in
// std::bad_alloc, and a one-level pool built silently.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "support/contract.hpp"
#include "support/exact_sum.hpp"
#include "workload/scenarios.hpp"

namespace speedqm {
namespace {

MultiTaskMixSpec small_spec() {
  MultiTaskMixSpec spec;
  spec.num_tasks = 4;
  spec.num_cycles = 1;
  return spec;
}

TEST(TaskPoolContract, ValidSpecBuilds) {
  const TaskPool pool(small_spec());
  EXPECT_EQ(pool.size(), 4u);
  MultiTaskMixSpec spec = small_spec();
  spec.num_levels = 2;
  spec.min_task_actions = spec.max_task_actions = 2;
  spec.budget_quality = 0;
  EXPECT_EQ(TaskPool(spec).size(), 4u);
}

TEST(TaskPoolContract, EmptyPoolThrows) {
  MultiTaskMixSpec spec = small_spec();
  spec.num_tasks = 0;
  EXPECT_THROW(TaskPool{spec}, contract_error);
}

TEST(TaskPoolContract, BadBudgetFactorThrows) {
  for (const double factor : {0.0, -1.0, std::nan(""),
                              std::numeric_limits<double>::infinity()}) {
    MultiTaskMixSpec spec = small_spec();
    spec.budget_factor = factor;
    EXPECT_THROW(TaskPool{spec}, contract_error) << factor;
  }
}

TEST(TaskPoolContract, FewerThanTwoLevelsThrows) {
  for (const int levels : {1, 0, -3}) {
    MultiTaskMixSpec spec = small_spec();
    spec.num_levels = levels;
    EXPECT_THROW(TaskPool{spec}, contract_error) << levels;
  }
}

TEST(TaskPoolContract, BadTaskSizeRangeThrows) {
  MultiTaskMixSpec spec = small_spec();
  spec.min_task_actions = 48;
  spec.max_task_actions = 8;
  EXPECT_THROW(TaskPool{spec}, contract_error);
  spec.min_task_actions = 1;
  spec.max_task_actions = 8;
  EXPECT_THROW(TaskPool{spec}, contract_error);
  spec.min_task_actions = 0;
  EXPECT_THROW(TaskPool{spec}, contract_error);
}

TEST(TaskPoolContract, NegativeBudgetQualityThrows) {
  MultiTaskMixSpec spec = small_spec();
  spec.budget_quality = -1;
  EXPECT_THROW(TaskPool{spec}, contract_error);
}

TEST(ExactSum, CheckedSumHoldsBelowTwoToThe53) {
  const TimeNs limit = kExactDoubleSumLimit;
  EXPECT_EQ(limit, TimeNs{9007199254740992});
  EXPECT_EQ(checked_exact_sum({}), 0);
  EXPECT_EQ(checked_exact_sum({limit - 1}), limit - 1);
  EXPECT_EQ(checked_exact_sum({limit / 2, limit / 2 - 1}), limit - 1);
  EXPECT_THROW(checked_exact_sum({limit}), contract_error);
  EXPECT_THROW(checked_exact_sum({limit / 2, limit / 2}), contract_error);
  EXPECT_THROW(checked_exact_sum({limit - 1, 1}), contract_error);
  EXPECT_THROW(checked_exact_sum({1, -1}), contract_error);
  // Large addends must not overflow the running total before the check.
  EXPECT_THROW(checked_exact_sum({limit - 1, TimeNs{1} << 62}), contract_error);
}

}  // namespace
}  // namespace speedqm

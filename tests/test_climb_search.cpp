// Adversarial property suite for the vectorized climb/fall search
// (sweep_detail::search_lanes): lanes the warm-neighbourhood resolve
// leaves undecided — hints climbing or falling two or more levels — must
// replicate decide_max_quality's bounded binary search probe for probe,
// Decision.ops included, over every border shape that has historically
// broken warm-start searches:
//   * borders exactly at t (the >= boundary in both directions);
//   * all-equal rows (every quality satisfied or none);
//   * tiny quality axes (|Q| in {1, 2}, where the search is all prologue);
//   * hints exactly two below/above the target (the shallowest search);
//   * non-monotone rows (deserialized/hand-built tables riding the
//     compressed arena's kWidth64 fallback).
// The suite drives search_lanes directly through the one-lane scalar
// backend (the same straight-line dataflow the vector backends run, per
// batch_sweep.hpp) over both arena adapters, then pins the engine-level
// kernels — Kernel::kAuto vs kScalar vs per-task TabledNumericManager —
// on an adversarial climb-heavy probe schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/batch_sweep.hpp"
#include "core/decision_search.hpp"
#include "core/fast_manager.hpp"
#include "core/td_compressed.hpp"
#include "workload/synthetic.hpp"

namespace speedqm {
namespace {

using sweep_detail::CompressedArena;
using sweep_detail::FlatArena;

/// The scalar reference: the shared search every manager uses.
Decision reference_decision(const std::vector<TimeNs>& row, Quality hint,
                            TimeNs t) {
  const Quality qmax = static_cast<Quality>(row.size()) - 1;
  return decide_max_quality(qmax, hint, [&](Quality q, std::uint64_t*) {
    return row[static_cast<std::size_t>(q)] >= t;
  });
}

/// Classifies a warm lane exactly as the kernels' resolve does and, when
/// the lane is left undecided (climb/fall >= 2), runs search_lanes over
/// `arena_row` and returns its Decision. Returns false when the resolve
/// decides the lane inline (those paths are pinned by the existing
/// engine differentials, not this suite).
template <class Arena>
bool run_pending_search(const typename Arena::Row& arena_row,
                        const std::vector<TimeNs>& row, Quality hint, TimeNs t,
                        Decision* out) {
  const Quality qmax = static_cast<Quality>(row.size()) - 1;
  const bool at_top = hint >= qmax;
  const bool at_bottom = hint <= kQmin;
  const bool sat_h = row[static_cast<std::size_t>(hint)] >= t;
  const bool sat_up =
      !at_top && row[static_cast<std::size_t>(hint) + 1] >= t;
  const bool sat_dn =
      !at_bottom && row[static_cast<std::size_t>(hint) - 1] >= t;
  const bool pending = sat_h ? (!at_top && sat_up && hint + 1 != qmax)
                             : (!at_bottom && !sat_dn);
  if (!pending) return false;

  alignas(64) std::int64_t hbuf[1] = {hint};
  alignas(64) std::int64_t q[1];
  alignas(64) std::int64_t ops[1];
  std::uint32_t feas = 0;
  sweep_detail::search_lanes<Arena, sweep_detail::ScalarBackend>(
      &arena_row, hbuf, /*pending=*/1u, /*climb=*/sat_h ? 1u : 0u, qmax, t, q,
      ops, &feas);
  out->quality = static_cast<Quality>(q[0]);
  out->ops = static_cast<std::uint64_t>(ops[0]);
  out->feasible = (feas & 1u) != 0;
  return true;
}

/// Differential over one (row, hint, t) case through BOTH arena adapters.
/// Returns how many of the two probes actually exercised search_lanes
/// (0 when the resolve decides the lane inline).
int check_case(const std::vector<TimeNs>& row, Quality hint, TimeNs t) {
  const Decision want = reference_decision(row, hint, t);

  int searched = 0;
  Decision got;
  const FlatArena::Row flat_row{row.data()};
  if (run_pending_search<FlatArena>(flat_row, row, hint, t, &got)) {
    ++searched;
    EXPECT_EQ(got.quality, want.quality) << "flat hint=" << hint << " t=" << t;
    EXPECT_EQ(got.ops, want.ops) << "flat hint=" << hint << " t=" << t;
    EXPECT_EQ(got.feasible, want.feasible) << "flat hint=" << hint;
  }

  // The same search over the delta-coded arena: one row of a one-task
  // compressed table (non-monotone rows ride the kWidth64 fallback).
  const CompressedTdTable table(1, static_cast<int>(row.size()), row);
  const CompressedTdTable::RowRef crow = table.row(0);
  if (run_pending_search<CompressedArena>(crow, row, hint, t, &got)) {
    ++searched;
    EXPECT_EQ(got.quality, want.quality)
        << "compressed hint=" << hint << " t=" << t;
    EXPECT_EQ(got.ops, want.ops) << "compressed hint=" << hint << " t=" << t;
    EXPECT_EQ(got.feasible, want.feasible) << "compressed hint=" << hint;
  }
  return searched;
}

/// Every hint against every interesting t: each stored border exactly
/// (the >= equality edge), one past it on each side, and both extremes.
int sweep_row(const std::vector<TimeNs>& row) {
  std::vector<TimeNs> probes = {kTimeMinusInf + 1, 0};
  for (const TimeNs v : row) {
    if (v != kTimeMinusInf) probes.push_back(v - 1);  // avoid signed wrap
    probes.push_back(v);  // border exactly at t
    probes.push_back(v + 1);
  }
  int searched = 0;
  const auto qmax = static_cast<Quality>(row.size()) - 1;
  for (Quality hint = 0; hint <= qmax; ++hint) {
    for (const TimeNs t : probes) searched += check_case(row, hint, t);
  }
  return searched;
}

TEST(ClimbSearch, BordersExactlyAtT) {
  // Strictly decreasing row: every t == row[q] sits exactly on a border,
  // so both the climb exit (sat at the border) and the fall entry (the
  // first miss) land on equality comparisons.
  EXPECT_GT(sweep_row({us(900), us(800), us(700), us(600), us(500), us(400),
                       us(300), us(200)}),
            0);
}

TEST(ClimbSearch, AllEqualRows) {
  // Degenerate plateau: one t satisfies every quality (climb straight to
  // qmax), t + 1 satisfies none (fall straight to infeasible).
  EXPECT_GT(sweep_row({us(500), us(500), us(500), us(500), us(500), us(500)}),
            0);
  // Plateaus with a single step: the binary search must stop exactly at
  // the step regardless of which side the hint starts on.
  EXPECT_GT(sweep_row({us(500), us(500), us(500), us(100), us(100), us(100)}),
            0);
}

TEST(ClimbSearch, TinyQualityAxes) {
  // |Q| = 1: the resolve decides everything (at_top and at_bottom at
  // once); search_lanes must never be reached.
  EXPECT_EQ(sweep_row({us(500)}), 0);
  // |Q| = 2: the only pending shape is falling from hint 1 with nothing
  // in between — all prologue (h - 1 == qmin), zero probe-loop rounds.
  const std::vector<TimeNs> two = {us(500), us(300)};
  EXPECT_GT(sweep_row(two), 0);
  Decision got;
  const FlatArena::Row row{two.data()};
  ASSERT_TRUE(run_pending_search<FlatArena>(row, two, 1, us(600), &got));
  EXPECT_FALSE(got.feasible);
  EXPECT_EQ(got.quality, kQmin);
  EXPECT_EQ(got.ops, 2u);  // sat(1), sat(0) — both paid by resolve + entry
}

TEST(ClimbSearch, HintTwoBelowTarget) {
  // The shallowest real search: target exactly hint + 2 (and, mirrored,
  // hint - 2). ops must match the scalar ladder: 2 entry probes + the
  // binary rounds over (hint+1, qmax].
  const std::vector<TimeNs> row = {us(900), us(800), us(700), us(600),
                                   us(500), us(400), us(300), us(200)};
  for (Quality hint = 0; hint + 2 < static_cast<Quality>(row.size()); ++hint) {
    const TimeNs t = row[static_cast<std::size_t>(hint) + 2];  // target h+2
    Decision got;
    const FlatArena::Row frow{row.data()};
    ASSERT_TRUE(run_pending_search<FlatArena>(frow, row, hint, t, &got))
        << "hint=" << hint;
    const Decision want = reference_decision(row, hint, t);
    EXPECT_EQ(got.quality, hint + 2);
    EXPECT_EQ(got.quality, want.quality);
    EXPECT_EQ(got.ops, want.ops);
  }
}

TEST(ClimbSearch, NonMonotoneRowsUseTheWidth64Fallback) {
  // Hand-built non-monotone rows (impossible from a PolicyEngine, legal
  // from deserialization): the compressed arena must fall back to raw
  // 64-bit residuals and the lock-step search must still mirror the
  // scalar ladder probe for probe — bit-identity is a transport contract,
  // not a monotonicity theorem.
  const std::vector<std::vector<TimeNs>> rows = {
      {us(500), us(900), us(100), us(700), us(300), us(800)},
      {us(100), us(200), us(300), us(400), us(500), us(600)},  // increasing
      {kTimeMinusInf, us(500), kTimeMinusInf, us(500), us(400), us(300)},
  };
  for (const auto& row : rows) {
    const CompressedTdTable table(1, static_cast<int>(row.size()), row);
    for (std::size_t q = 0; q < row.size(); ++q) {
      ASSERT_EQ(table.td(0, static_cast<Quality>(q)), row[q]);
    }
    EXPECT_GT(sweep_row(row), 0);
  }
}

TEST(ClimbSearch, ExhaustiveSmallRowDifferential) {
  // Every 5-level row over a 3-value alphabet (3^5 shapes), every hint,
  // every border-adjacent t: the complete small-case space, monotone or
  // not, through both arenas.
  const TimeNs vals[3] = {us(100), us(500), us(500)};  // duplicate: plateaus
  int searched = 0;
  for (int code = 0; code < 3 * 3 * 3 * 3 * 3; ++code) {
    std::vector<TimeNs> row(5);
    int c = code;
    for (int i = 0; i < 5; ++i) {
      row[static_cast<std::size_t>(i)] = vals[c % 3];
      c /= 3;
    }
    searched += sweep_row(row);
  }
  EXPECT_GT(searched, 1000);
}

// ---------------------------------------------------------------------------
// Engine-level: the full kernels (vector group resolve + lock-step search)
// against the branchy scalar kernel and the per-task reference managers on
// a probe schedule built to swing every hint >= 2 levels per sweep.

TEST(ClimbSearch, VectorKernelMatchesScalarOnClimbHeavySchedule) {
  std::vector<std::unique_ptr<SyntheticWorkload>> tasks;
  std::vector<std::unique_ptr<PolicyEngine>> engines;
  std::vector<std::unique_ptr<TabledNumericManager>> tabled;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SyntheticSpec spec;
    spec.seed = 20260808 + seed;
    spec.num_actions = 12 + 5 * seed;
    spec.num_levels = 16;
    spec.budget_quality = 8;
    tasks.push_back(std::make_unique<SyntheticWorkload>(spec));
    engines.push_back(std::make_unique<PolicyEngine>(tasks.back()->app(),
                                                     tasks.back()->timing()));
    tabled.push_back(std::make_unique<TabledNumericManager>(*engines.back()));
  }
  std::vector<const PolicyEngine*> engine_ptrs;
  for (const auto& e : engines) engine_ptrs.push_back(e.get());

  for (const ArenaLayout layout :
       {ArenaLayout::kFlat, ArenaLayout::kCompressed}) {
    BatchDecisionEngine vec(engine_ptrs, BatchDecisionEngine::Mode::kTabled,
                            layout, BatchDecisionEngine::Kernel::kAuto);
    BatchDecisionEngine sca(engine_ptrs, BatchDecisionEngine::Mode::kTabled,
                            layout, BatchDecisionEngine::Kernel::kScalar);
    for (auto& m : tabled) m->reset();

    const std::size_t tasks_n = engine_ptrs.size();
    std::vector<StateIndex> states(tasks_n);
    std::vector<Decision> out_vec(tasks_n), out_sca(tasks_n);
    for (StateIndex round = 0; round < 400; ++round) {
      if (round % 53 == 0) {
        vec.reset();
        sca.reset();
        for (auto& m : tabled) m->reset();
      }
      for (std::size_t task = 0; task < tasks_n; ++task) {
        states[task] = round % vec.num_states(task);
      }
      // Alternate the probe between a low- and a high-quality border of
      // task 0's current row (exactly at the border on even rounds, one
      // past it on odd): every warm hint must climb or fall far beyond
      // the neighbourhood, forcing the lock-step search each sweep.
      const Quality target = (round % 2 == 0) ? 2 : vec.num_levels() - 3;
      const TimeNs t =
          vec.td(0, states[0], target) - static_cast<TimeNs>(round % 2);
      const std::uint64_t ops_vec = vec.decide_all(states.data(), t,
                                                   out_vec.data());
      const std::uint64_t ops_sca = sca.decide_all(states.data(), t,
                                                   out_sca.data());
      ASSERT_EQ(ops_vec, ops_sca) << "round " << round;
      for (std::size_t task = 0; task < tasks_n; ++task) {
        const Decision want = tabled[task]->decide(states[task], t);
        ASSERT_EQ(out_vec[task].quality, want.quality)
            << "round " << round << " task " << task;
        ASSERT_EQ(out_vec[task].ops, want.ops)
            << "round " << round << " task " << task;
        ASSERT_EQ(out_vec[task].feasible, want.feasible) << "round " << round;
        ASSERT_EQ(out_sca[task].quality, want.quality) << "round " << round;
        ASSERT_EQ(out_sca[task].ops, want.ops) << "round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace speedqm

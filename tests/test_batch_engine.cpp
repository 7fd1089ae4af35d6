// Tests for the batched multi-task decision engine (core/batch_engine.hpp)
// and the streaming executor mode it unlocks:
//   * batched decisions (and ops) bit-identical to sequential per-task
//     manager calls, including a 10^4-cycle differential over a random
//     heterogeneous mix;
//   * incremental-lane mode bit-identical to the tabled arena;
//   * streaming replay (retain_steps = false + RunSummaryAccumulator)
//     producing the same RunSummary as the retained-steps path;
//   * epoch protocol details: finished-task skipping, per-cycle reset,
//     construction contracts;
//   * every compiled per-ISA sweep kernel (AVX2, AVX-512) called directly
//     and matched against the scalar sweep — flat and compressed arenas,
//     cold/finished lanes, edge hints, ragged tails, |Q| above and below
//     64, sentinel and non-monotone tables.
#include <gtest/gtest.h>

#include <ostream>
#include <sstream>

#include "core/batch_engine.hpp"
#include "core/batch_sweep.hpp"
#include "core/fast_manager.hpp"
#include "core/region_compiler.hpp"
#include "support/rng.hpp"
#include "sim/metrics.hpp"
#include "workload/scenarios.hpp"
#include "workload/synthetic.hpp"

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

/// Sink that retains only the quality stream and counts steps — O(1)-ish
/// state for differential runs that must not materialize ExecSteps.
struct QualityStreamSink final : StepSink {
  std::vector<Quality> qualities;
  std::uint64_t total_ops = 0;
  void on_step(const ExecStep& step) override {
    qualities.push_back(step.quality);
    total_ops += step.ops;
  }
};

TEST(BatchDecisionEngine, MatchesSequentialTabledManagersProbeForProbe) {
  // Independent per-task tabled managers against one shared clock: every
  // decision and op count must match the batched sweep, state by state.
  std::vector<std::unique_ptr<SyntheticWorkload>> tasks;
  std::vector<std::unique_ptr<TabledNumericManager>> tabled;
  std::vector<std::unique_ptr<PolicyEngine>> engines;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SyntheticSpec spec;
    spec.seed = seed;
    spec.num_actions = 10 + 7 * seed;
    spec.num_levels = 6;
    spec.budget_quality = 3;
    tasks.push_back(std::make_unique<SyntheticWorkload>(spec));
    engines.push_back(std::make_unique<PolicyEngine>(tasks.back()->app(),
                                                     tasks.back()->timing()));
    tabled.push_back(std::make_unique<TabledNumericManager>(*engines.back()));
  }
  std::vector<const PolicyEngine*> engine_ptrs;
  for (const auto& e : engines) engine_ptrs.push_back(e.get());
  BatchDecisionEngine batch(engine_ptrs);

  EXPECT_EQ(batch.num_tasks(), 4u);
  EXPECT_EQ(batch.num_levels(), 6);
  EXPECT_GT(batch.memory_bytes(), 0u);

  // Shared-clock probe sequence: times sweep the feasible band while every
  // task advances monotonically (cycling through its own states).
  const StateIndex rounds = 200;
  std::vector<StateIndex> states(4);
  std::vector<Decision> out(4);
  for (StateIndex r = 0; r < rounds; ++r) {
    if (r % 37 == 0) {  // new cycle: both sides re-arm
      batch.reset();
      for (auto& m : tabled) m->reset();
    }
    for (std::size_t task = 0; task < 4; ++task) {
      states[task] = r % batch.num_states(task);
    }
    const TimeNs t = batch.td(1, states[1] % batch.num_states(1),
                              3) - us(5) + us(static_cast<TimeNs>(r % 11));
    const std::uint64_t total = batch.decide_all(states.data(), t, out.data());
    std::uint64_t expected_total = 0;
    for (std::size_t task = 0; task < 4; ++task) {
      const Decision d = tabled[task]->decide(states[task], t);
      expected_total += d.ops;
      ASSERT_EQ(out[task].quality, d.quality) << "round " << r << " task " << task;
      ASSERT_EQ(out[task].feasible, d.feasible) << "round " << r;
      ASSERT_EQ(out[task].ops, d.ops) << "round " << r << " task " << task;
    }
    EXPECT_EQ(total, expected_total);
  }
}

TEST(BatchDecisionEngine, DecideOneMatchesDecideAll) {
  SyntheticSpec spec;
  spec.seed = 7;
  spec.num_actions = 25;
  spec.num_levels = 5;
  spec.budget_quality = 3;
  SyntheticWorkload a(spec);
  spec.seed = 8;
  spec.num_actions = 13;
  SyntheticWorkload b(spec);
  const PolicyEngine ea(a.app(), a.timing());
  const PolicyEngine eb(b.app(), b.timing());

  BatchDecisionEngine all({&ea, &eb});
  BatchDecisionEngine one({&ea, &eb});
  std::vector<Decision> out(2);
  for (StateIndex s = 0; s < 13; ++s) {
    const TimeNs t = all.td(0, s, 2) - us(3);
    const StateIndex states[2] = {s, s};
    all.decide_all(states, t, out.data());
    EXPECT_EQ(one.decide_one(0, s, t).quality, out[0].quality);
    EXPECT_EQ(one.decide_one(1, s, t).quality, out[1].quality);
  }
}

TEST(BatchDecisionEngine, SkipsFinishedTasks) {
  SyntheticSpec spec;
  spec.seed = 9;
  spec.num_actions = 6;
  spec.num_levels = 4;
  spec.budget_quality = 2;
  SyntheticWorkload a(spec);
  const PolicyEngine engine(a.app(), a.timing());
  BatchDecisionEngine batch({&engine, &engine});

  std::vector<Decision> out(2);
  out[1].quality = -42;  // sentinel: must stay untouched
  const StateIndex states[2] = {2, 6};  // task 1 finished (s == n)
  const std::uint64_t ops = batch.decide_all(states, us(100), out.data());
  EXPECT_GT(ops, 0u);
  EXPECT_EQ(out[1].quality, -42);
}

TEST(BatchDecisionEngine, ConstructionContracts) {
  SyntheticSpec spec;
  spec.num_levels = 5;
  spec.budget_quality = 3;
  SyntheticWorkload a(spec);
  spec.num_levels = 3;
  spec.budget_quality = 2;
  spec.seed = 11;
  SyntheticWorkload b(spec);
  const PolicyEngine ea(a.app(), a.timing());
  const PolicyEngine eb(b.app(), b.timing());

  EXPECT_THROW(BatchDecisionEngine({}), contract_error);
  EXPECT_THROW(BatchDecisionEngine({&ea, nullptr}), contract_error);
  // Mismatched quality level counts (5 vs 3).
  EXPECT_THROW(BatchDecisionEngine({&ea, &eb}), contract_error);
}

class MultiTaskDifferential : public ::testing::Test {
 protected:
  static void run_pair(MultiTaskMix& mix, QualityManager& manager,
                       std::size_t cycles, QualityStreamSink& sink,
                       RunResult& result, bool zero_overhead = false) {
    ExecutorOptions opts = mix.executor_options(cycles);
    opts.retain_steps = false;
    opts.retain_cycles = false;
    opts.sink = &sink;
    // Engines with different probe costs (tabled vs incremental) report
    // different ops; with a charging overhead model that shifts the clock
    // and decisions may legitimately differ. Zero overhead isolates the
    // bit-identity of the decisions themselves.
    if (zero_overhead) opts.platform = Platform();
    result = run_cyclic(mix.composed().app(), manager, mix.source(), opts);
  }
};

// The acceptance differential: batched decisions bit-identical to per-task
// sequential decisions over >= 10^4 cycles of a random heterogeneous mix.
TEST_F(MultiTaskDifferential, BatchedEqualsSequentialOverTenThousandCycles) {
  MultiTaskMix mix(small_mix_spec(4, 20260730));
  const auto engines = mix.engines();
  BatchMultiTaskManager batch(mix.composed(), engines);
  SequentialMultiTaskManager sequential(mix.composed(), engines);

  const std::size_t cycles = 10000;
  QualityStreamSink sink_batch, sink_seq;
  RunResult run_batch, run_seq;
  run_pair(mix, batch, cycles, sink_batch, run_batch);
  run_pair(mix, sequential, cycles, sink_seq, run_seq);

  ASSERT_EQ(sink_batch.qualities.size(), sink_seq.qualities.size());
  ASSERT_EQ(sink_batch.qualities.size(),
            cycles * mix.composed().app().size());
  EXPECT_EQ(sink_batch.qualities, sink_seq.qualities);
  // Same ops => same overhead charges => identical platform clocks.
  EXPECT_EQ(sink_batch.total_ops, sink_seq.total_ops);
  EXPECT_EQ(run_batch.total_time, run_seq.total_time);
  EXPECT_EQ(run_batch.total_overhead_time, run_seq.total_overhead_time);
  EXPECT_EQ(run_batch.total_deadline_misses, run_seq.total_deadline_misses);
  EXPECT_EQ(run_batch.total_infeasible, run_seq.total_infeasible);
  // Streaming mode retained nothing.
  EXPECT_TRUE(run_batch.steps.empty());
  EXPECT_TRUE(run_batch.cycles.empty());
  EXPECT_EQ(run_batch.total_steps, sink_batch.qualities.size());
}

// Incremental-lane mode (no tables) must agree with the tabled arena — and
// with the sequential per-task incremental managers.
TEST_F(MultiTaskDifferential, IncrementalModeMatchesTabledAndSequential) {
  MultiTaskMix mix(small_mix_spec(3, 977));
  const auto engines = mix.engines();
  BatchMultiTaskManager tabled(mix.composed(), engines,
                               BatchDecisionEngine::Mode::kTabled);
  BatchMultiTaskManager incremental(mix.composed(), engines,
                                    BatchDecisionEngine::Mode::kIncremental);
  SequentialMultiTaskManager seq_inc(mix.composed(), engines,
                                     BatchDecisionEngine::Mode::kIncremental);

  const std::size_t cycles = 200;
  QualityStreamSink s_tab, s_inc, s_seq;
  RunResult r_tab, r_inc, r_seq;
  run_pair(mix, tabled, cycles, s_tab, r_tab, /*zero_overhead=*/true);
  run_pair(mix, incremental, cycles, s_inc, r_inc, /*zero_overhead=*/true);
  run_pair(mix, seq_inc, cycles, s_seq, r_seq, /*zero_overhead=*/true);

  // Decisions are engine-independent (the bit-identity invariant)...
  EXPECT_EQ(s_tab.qualities, s_inc.qualities);
  EXPECT_EQ(s_inc.qualities, s_seq.qualities);
  // ...while ops differ between tabled and incremental (different probe
  // costs) but not between batched-incremental and sequential-incremental.
  EXPECT_EQ(s_inc.total_ops, s_seq.total_ops);
  EXPECT_EQ(r_inc.total_time, r_seq.total_time);
  EXPECT_EQ(incremental.name(), "batch-multitask-incremental");
  EXPECT_EQ(seq_inc.name(), "seq-multitask-incremental");
}

// Streaming acceptance: the RunSummaryAccumulator over a streamed run must
// reproduce the retained-steps summarize_run exactly (10^4-cycle check).
TEST_F(MultiTaskDifferential, StreamingSummaryMatchesRetained) {
  MultiTaskMix mix(small_mix_spec(3, 41));
  const auto engines = mix.engines();
  const std::size_t cycles = 10000;

  BatchMultiTaskManager retained_mgr(mix.composed(), engines);
  ExecutorOptions opts = mix.executor_options(cycles);
  const RunResult retained =
      run_cyclic(mix.composed().app(), retained_mgr, mix.source(), opts);
  const RunSummary want = summarize_run("batch", retained);

  BatchMultiTaskManager streamed_mgr(mix.composed(), engines);
  RunSummaryAccumulator acc("batch");
  acc.keep_cycle_series(true);
  ExecutorOptions stream_opts = mix.executor_options(cycles);
  stream_opts.retain_steps = false;
  stream_opts.retain_cycles = false;
  stream_opts.sink = &acc;
  const RunResult streamed =
      run_cyclic(mix.composed().app(), streamed_mgr, mix.source(), stream_opts);
  const RunSummary got = acc.finish();

  EXPECT_TRUE(streamed.steps.empty());
  EXPECT_TRUE(streamed.cycles.empty());
  EXPECT_EQ(streamed.total_steps, retained.total_steps);
  EXPECT_EQ(streamed.total_time, retained.total_time);

  // Bit-equality: both paths run the identical fold in identical order.
  EXPECT_EQ(got.total_steps, want.total_steps);
  EXPECT_EQ(got.manager_calls, want.manager_calls);
  EXPECT_EQ(got.deadline_misses, want.deadline_misses);
  EXPECT_EQ(got.infeasible, want.infeasible);
  EXPECT_EQ(got.relax_histogram, want.relax_histogram);
  EXPECT_EQ(got.mean_quality, want.mean_quality);
  EXPECT_EQ(got.overhead_pct, want.overhead_pct);
  EXPECT_EQ(got.mean_overhead_per_action_us, want.mean_overhead_per_action_us);
  EXPECT_EQ(got.total_time_s, want.total_time_s);
  EXPECT_EQ(got.smoothness.length, want.smoothness.length);
  EXPECT_EQ(got.smoothness.mean_quality, want.smoothness.mean_quality);
  EXPECT_EQ(got.smoothness.min_quality, want.smoothness.min_quality);
  EXPECT_EQ(got.smoothness.max_quality, want.smoothness.max_quality);
  EXPECT_EQ(got.smoothness.mean_abs_jump, want.smoothness.mean_abs_jump);
  EXPECT_EQ(got.smoothness.switches, want.smoothness.switches);
  EXPECT_EQ(got.smoothness.max_jump, want.smoothness.max_jump);
  EXPECT_EQ(got.smoothness.quality_stddev, want.smoothness.quality_stddev);
  // The accumulator's cycle series mirrors the retained per-cycle means.
  EXPECT_EQ(acc.cycle_quality_series(), per_cycle_quality(retained));
}

// Kernel pins: the default (widest vector) kernel must be bit-identical
// to the forced-scalar kernel — decisions, ops, platform clock — over 10^4
// cycles, for both arena layouts. (On hardware without a vector kernel
// kAuto resolves to scalar and the check is vacuous but still runs.)
TEST_F(MultiTaskDifferential, KernelsBitIdenticalOverTenThousandCycles) {
  MultiTaskMix mix(small_mix_spec(4, 20260808));
  const auto engines = mix.engines();
  const std::size_t cycles = 10000;

  BatchMultiTaskManager scalar_mgr(mix.composed(), engines,
                                   BatchDecisionEngine::Mode::kTabled,
                                   ArenaLayout::kFlat,
                                   BatchDecisionEngine::Kernel::kScalar);
  // kScalar never runs a vector kernel, whatever the CPU offers.
  EXPECT_FALSE(scalar_mgr.engine().simd_active());
  QualityStreamSink s_scalar;
  RunResult r_scalar;
  run_pair(mix, scalar_mgr, cycles, s_scalar, r_scalar);

  for (const ArenaLayout layout :
       {ArenaLayout::kFlat, ArenaLayout::kCompressed}) {
    BatchMultiTaskManager mgr(mix.composed(), engines,
                              BatchDecisionEngine::Mode::kTabled, layout,
                              BatchDecisionEngine::Kernel::kAuto);
    QualityStreamSink sink;
    RunResult run;
    run_pair(mix, mgr, cycles, sink, run);
    EXPECT_EQ(sink.qualities, s_scalar.qualities) << to_string(layout);
    EXPECT_EQ(sink.total_ops, s_scalar.total_ops) << to_string(layout);
    EXPECT_EQ(run.total_time, r_scalar.total_time) << to_string(layout);
    EXPECT_EQ(run.total_deadline_misses, r_scalar.total_deadline_misses);
    EXPECT_EQ(run.total_infeasible, r_scalar.total_infeasible);
  }
}

// The mix scenario itself: safe under the coexistence margin, and the
// composition's per-task attribution adds up.
TEST(MultiTaskMixScenario, ServesAllTasksWithoutMisses) {
  MultiTaskMix mix(small_mix_spec(5, 123));
  const auto engines = mix.engines();
  BatchMultiTaskManager manager(mix.composed(), engines);
  const RunResult run = run_cyclic(mix.composed().app(), manager, mix.source(),
                                   mix.executor_options(32));
  EXPECT_EQ(run.total_deadline_misses, 0u);
  // Transient overload may force degrade-to-qmin (recorded as infeasible)
  // without ever missing a deadline; it must stay rare.
  EXPECT_LT(run.total_infeasible, run.total_steps / 100);
  EXPECT_GT(run.mean_quality(), 0.0);
  EXPECT_EQ(run.total_steps, 32u * mix.composed().app().size());
  // Composite decision points are strictly fewer than actions (epochs()
  // resets per cycle, so compare against one cycle's actions): after each
  // refresh the other live tasks consume cached decisions.
  EXPECT_GT(manager.epochs(), 0u);
  EXPECT_LT(manager.epochs(), mix.composed().app().size());
}

// ---------------------------------------------------------------------------
// Per-ISA kernels, called directly. The engine always runs the widest ISA
// the CPU offers, so on an AVX-512 host no engine-level test reaches the
// AVX2 kernel. These tests call every compiled entry point against the
// scalar sweep over the same tables, hints and times; a case skips only
// when the build or the CPU lacks its ISA. Under ASan they also check the
// kernels' whole-window loads against the flat arena's padding and the
// compressed planes' guard pads.

using sweep_detail::CompressedArena;
using sweep_detail::FlatArena;
using sweep_detail::SweepArgs;

struct IsaKernels {
  const char* name;
  bool (*usable)();
  std::uint64_t (*flat)(const FlatArena&, const SweepArgs&);
  std::uint64_t (*compressed)(const CompressedArena&, const SweepArgs&);
};

void PrintTo(const IsaKernels& isa, std::ostream* os) { *os << isa.name; }

/// T tasks' tD tables (row-major [state][quality], one shared |Q|) in both
/// arena layouts: the flat arena padded exactly as BatchDecisionEngine
/// pads its own, and one CompressedTdTable per task — optionally reloaded
/// through the v2 stream, whose loader must rebuild the guard pads.
class KernelTables {
 public:
  KernelTables(const std::vector<std::vector<TimeNs>>& tables, int nq,
               bool reload)
      : nq_(nq) {
    std::vector<std::size_t> offset;
    arena_.assign(2, 0);  // front pad: a cold window starts at h - 1 = -2
    for (const auto& table : tables) {
      sizes_.push_back(table.size() / static_cast<std::size_t>(nq));
      offset.push_back(arena_.size());
      arena_.insert(arena_.end(), table.begin(), table.end());
      CompressedTdTable compressed(sizes_.back(), nq, table);
      if (reload) {
        std::stringstream stream;
        RegionCompiler::save_regions_compressed(compressed, stream);
        compressed = RegionCompiler::load_regions_compressed(stream);
      }
      compressed_.push_back(std::move(compressed));
    }
    arena_.insert(arena_.end(), static_cast<std::size_t>(nq) + 2, 0);
    for (const std::size_t o : offset) bases_.push_back(arena_.data() + o);
    for (const auto& table : tables) {
      for (const TimeNs v : table) {
        borders_.push_back(v);
        if (v > kTimeMinusInf) borders_.push_back(v - 1);
        if (v < kTimePlusInf) borders_.push_back(v + 1);
      }
    }
  }

  // bases_ points into arena_: a copy would alias the source's buffer.
  KernelTables(const KernelTables&) = delete;
  KernelTables& operator=(const KernelTables&) = delete;

  FlatArena flat() const {
    return FlatArena{bases_.data(), static_cast<std::size_t>(nq_)};
  }
  CompressedArena compressed() const {
    return CompressedArena{compressed_.data()};
  }
  const std::vector<StateIndex>& sizes() const { return sizes_; }
  int nq() const { return nq_; }
  /// Every stored border, and one past it on each side.
  const std::vector<TimeNs>& borders() const { return borders_; }

 private:
  int nq_;
  std::vector<StateIndex> sizes_;
  std::vector<TimeNs> arena_;
  std::vector<const TimeNs*> bases_;
  std::vector<CompressedTdTable> compressed_;
  std::vector<TimeNs> borders_;
};

/// What one differential run exercised, counted from the scalar sweep.
struct KernelCoverage {
  int full_groups = 0;  ///< rounds whose every task was live and warm
  int cold = 0;
  int finished = 0;
  int at_bottom = 0;    ///< warm hints at qmin
  int at_top = 0;       ///< warm hints at qmax
  int near = 0;         ///< warm lanes resolved within one level
  int climbs = 0;       ///< warm lanes that rose two or more levels
  int falls = 0;        ///< warm lanes that fell two or more levels
};

/// Drives `rounds` sweeps of one ISA kernel and of the scalar sweep over
/// the same arena from identical hints, and requires identical Decisions
/// (finished tasks' slots untouched on both sides), op totals and hints
/// after every sweep. Per round and task: a state (finished with some
/// probability) and a hint (cold, qmin, qmax, uniform, or the hint the
/// previous sweep left — the warm steady state); one shared t from the
/// tables' borders, repeated on some rounds so carried hints stay put.
template <class Arena>
KernelCoverage expect_kernel_matches_scalar(
    std::uint64_t (*kernel)(const Arena&, const SweepArgs&),
    const Arena& arena, const KernelTables& tables, std::uint64_t seed,
    int rounds) {
  const std::size_t T = tables.sizes().size();
  const Quality qmax = tables.nq() - 1;
  Xoshiro256 rng(seed);
  std::vector<StateIndex> states(T);
  std::vector<Quality> hints_vec(T, -1);
  std::vector<Quality> hints_sca(T, -1);
  Decision untouched;
  untouched.quality = -7;
  untouched.ops = 999;
  KernelCoverage cov;
  TimeNs t = tables.borders().front();
  for (int round = 0; round < rounds; ++round) {
    // Round shapes: every 4th all live and warm (full groups), every 5th
    // mostly finished (low-occupancy groups), the rest mixed.
    const bool steady = round % 4 == 0;
    const double p_finished = steady ? 0.0 : (round % 5 == 0 ? 0.8 : 0.1);
    const double p_cold = steady ? 0.0 : 0.1;
    for (std::size_t task = 0; task < T; ++task) {
      const StateIndex n = tables.sizes()[task];
      states[task] = rng.chance(p_finished)
                         ? n
                         : static_cast<StateIndex>(rng.uniform_int(
                               0, static_cast<std::int64_t>(n) - 1));
      Quality h = hints_sca[task];
      if (rng.chance(p_cold)) {
        h = -1;
      } else if (h < 0 || rng.chance(0.4)) {
        const std::int64_t pick = rng.uniform_int(0, 3);
        h = pick == 0   ? 0
            : pick == 1 ? qmax
                        : static_cast<Quality>(rng.uniform_int(0, qmax));
      }
      hints_vec[task] = h;
      hints_sca[task] = h;
    }
    if (round % 3 != 0) {
      t = tables.borders()[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(tables.borders().size()) - 1))];
    }
    const std::vector<Quality> before = hints_sca;
    std::vector<Decision> out_vec(T, untouched);
    std::vector<Decision> out_sca(T, untouched);
    const SweepArgs vec_args{tables.sizes().data(), hints_vec.data(), T,
                             qmax, states.data(), t, out_vec.data()};
    const SweepArgs sca_args{tables.sizes().data(), hints_sca.data(), T,
                             qmax, states.data(), t, out_sca.data()};
    const std::uint64_t ops_vec = kernel(arena, vec_args);
    const std::uint64_t ops_sca = sweep_detail::sweep_scalar(arena, sca_args);
    EXPECT_EQ(ops_vec, ops_sca) << "round " << round;
    EXPECT_EQ(hints_vec, hints_sca) << "round " << round;
    bool full = true;
    for (std::size_t task = 0; task < T; ++task) {
      const Decision& got = out_vec[task];
      const Decision& want = out_sca[task];
      EXPECT_EQ(got.quality, want.quality)
          << "round " << round << " task " << task << " hint "
          << before[task] << " t " << t;
      EXPECT_EQ(got.ops, want.ops) << "round " << round << " task " << task;
      EXPECT_EQ(got.feasible, want.feasible) << "round " << round;
      EXPECT_EQ(got.relax_steps, want.relax_steps) << "round " << round;
      const Quality h = before[task];
      if (states[task] >= tables.sizes()[task]) {
        ++cov.finished;
        full = false;
      } else if (h < 0) {
        ++cov.cold;
        full = false;
      } else {
        cov.at_bottom += h == 0;
        cov.at_top += h == qmax;
        const int step = want.quality - h;
        cov.climbs += step >= 2;
        cov.falls += step <= -2;
        cov.near += step >= -1 && step <= 1;
      }
    }
    cov.full_groups += full;
    if (::testing::Test::HasFailure()) break;  // first diverging round only
  }
  return cov;
}

/// Every case family must reach the kernel paths it exists for.
void expect_full_coverage(const KernelCoverage& cov) {
  EXPECT_GT(cov.full_groups, 0);
  EXPECT_GT(cov.cold, 0);
  EXPECT_GT(cov.finished, 0);
  EXPECT_GT(cov.at_bottom, 0);
  EXPECT_GT(cov.at_top, 0);
  EXPECT_GT(cov.near, 0);
  EXPECT_GT(cov.climbs, 0);
  EXPECT_GT(cov.falls, 0);
}

/// T synthetic tD tables at |Q| = nq: realistic monotone borders, task
/// lengths varied so rows of different tasks interleave.
std::vector<std::vector<TimeNs>> synthetic_tables(std::size_t T, int nq,
                                                  std::uint64_t seed) {
  std::vector<std::vector<TimeNs>> tables;
  for (std::size_t task = 0; task < T; ++task) {
    SyntheticSpec spec;
    spec.seed = seed + task;
    spec.num_actions = 5 + 3 * task;
    spec.num_levels = nq;
    spec.budget_quality = nq / 2;
    spec.num_cycles = 1;
    const SyntheticWorkload w(spec);
    tables.push_back(PolicyEngine(w.app(), w.timing()).td_table());
  }
  return tables;
}

class SweepKernelDifferential : public ::testing::TestWithParam<IsaKernels> {
 protected:
  void SetUp() override {
    if (!GetParam().usable()) {
      GTEST_SKIP() << GetParam().name << " not compiled in or not executable "
                   << "on this CPU";
    }
  }
};

TEST_P(SweepKernelDifferential, FlatTablesAcrossQualityAxisWidths) {
  // |Q| <= 64 runs the register sat-mask search (5: one partial chunk;
  // 64: the widest mask); |Q| > 64 falls back to search_lanes. T = 13 is
  // not a multiple of either group width, so every run has a ragged tail.
  for (const int nq : {5, 16, 64, 72}) {
    SCOPED_TRACE(nq);
    const KernelTables tables(synthetic_tables(13, nq, 20261018), nq, false);
    expect_full_coverage(expect_kernel_matches_scalar(
        GetParam().flat, tables.flat(), tables, 7000 + nq, 400));
  }
}

TEST_P(SweepKernelDifferential, CompressedTablesBuiltAndReloaded) {
  for (const bool reload : {false, true}) {
    for (const int nq : {12, 72}) {
      SCOPED_TRACE(testing::Message() << "nq " << nq << " reload " << reload);
      const KernelTables tables(synthetic_tables(11, nq, 20260808), nq,
                                reload);
      expect_full_coverage(expect_kernel_matches_scalar(
          GetParam().compressed, tables.compressed(), tables, 9000 + nq,
          400));
    }
  }
}

TEST_P(SweepKernelDifferential, SentinelAndNonMonotoneTable) {
  // Hand-built: +inf and -inf borders (the wide leader plane) and a row
  // that drops below its block leader (kWidth64 residual blocks). At
  // |Q| = 3 every window runs past the row at both ends, so the out-of-row
  // lanes read the arena padding and the planes' guard pads.
  const std::vector<TimeNs> data = {
      kTimePlusInf, us(900), us(100),     us(500), us(400), us(50),
      kTimePlusInf, us(800), kTimeMinusInf, us(700), us(600), us(600),
      us(710),      us(610), us(600),     us(712), us(611), us(601),
  };
  const std::vector<std::vector<TimeNs>> tables_data(9, data);
  for (const bool reload : {false, true}) {
    SCOPED_TRACE(reload);
    const KernelTables tables(tables_data, 3, reload);
    const KernelCoverage flat = expect_kernel_matches_scalar(
        GetParam().flat, tables.flat(), tables, 31, 400);
    const KernelCoverage compressed = expect_kernel_matches_scalar(
        GetParam().compressed, tables.compressed(), tables, 37, 400);
    EXPECT_GT(flat.full_groups, 0);
    EXPECT_GT(compressed.full_groups, 0);
    EXPECT_GT(flat.climbs + flat.falls, 0);
    EXPECT_GT(compressed.climbs + compressed.falls, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PerIsa, SweepKernelDifferential,
    ::testing::Values(
        IsaKernels{"avx2", &sweep_detail::avx2_usable,
                   &sweep_detail::sweep_flat_avx2,
                   &sweep_detail::sweep_compressed_avx2},
        IsaKernels{"avx512", &sweep_detail::avx512_usable,
                   &sweep_detail::sweep_flat_avx512,
                   &sweep_detail::sweep_compressed_avx512}),
    [](const ::testing::TestParamInfo<IsaKernels>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace speedqm

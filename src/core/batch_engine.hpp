// Batched multi-task decision engine: Γ(s_τ, t) for all T tasks in one pass.
//
// The composed-system path (core/multi_task.hpp) interleaves T tasks into
// one schedule but still answers one decision per composite action,
// re-probing tables task by task through a virtual QualityManager call.
// When many applications share one platform clock, that per-task dispatch
// is the dominant cost: each call re-loads the manager's table metadata,
// re-derives the row base, and returns through two call boundaries — work
// that does not shrink as T grows.
//
// BatchDecisionEngine restructures the data instead of the control flow:
//   * task-major SoA cursors — one contiguous array of per-task row base
//     pointers into a shared tD arena (all tasks' flat [state][quality]
//     tables back to back, the TabledNumericManager / RegionCompiler
//     layout) plus one contiguous warm-hint array;
//   * decide_all(states, t, out) resolves every task's quality probe in a
//     single row sweep — the warm steady state is two loads and two
//     compares per task, fully inlined, no virtual dispatch;
//   * decisions are bit-identical (including Decision.ops) to sequential
//     per-task decisions because the sweep replicates the shared prefix
//     search of core/decision_search.hpp probe for probe, and anything
//     beyond the warm neighbourhood falls back to decide_max_quality
//     itself.
//
// Mode::kIncremental swaps the arena for one IncrementalTdState lane set
// per task replayed against the common clock (no precomputed tables; for
// sequences assembled at run time), bit-identical to per-task
// NumericManager::Strategy::kIncremental.
//
// Two orthogonal hot-path options (tabled mode):
//   * ArenaLayout::kCompressed stores the arena in the delta-coded layout
//     of core/td_compressed.hpp (~2.2-2.4x less memory); probes decode
//     exactly, so decisions and ops are unchanged.
//   * Kernel::kAuto vectorizes the whole sweep across task lanes with the
//     widest kernel the build and the running CPU offer (AVX-512, then
//     AVX2, when built with SPEEDQM_SIMD on x86-64; see batch_sweep.hpp):
//     the warm-neighbourhood resolve as vector compares + selects over
//     lane groups, beyond-neighbourhood outcomes through a lock-step
//     masked binary search, and compressed-arena probes block-decoded in
//     registers. Groups with too few warm live lanes drop to the scalar
//     per-task resolve inside the kernel. The scalar path is the SAME
//     resolve case analysis, and the vector search replays
//     decide_max_quality's probe schedule exactly, which is what keeps
//     decisions — including Decision.ops — bit-identical across
//     scalar/SIMD and flat/compressed combinations.
//
// On top of the engine, MultiTaskEpochManager adapts batched decisions to
// the cyclic executor over a ComposedSystem: at a composite action whose
// task has no cached decision left, ALL unfinished tasks are re-decided at
// the current observed time (one composite decision point per interleave
// round), and each task's cached decision is consumed as its actions come
// up. BatchMultiTaskManager resolves the epoch through decide_all;
// SequentialMultiTaskManager resolves it through per-task virtual manager
// calls — the baseline the bench gates against, and the reference the
// differential tests pin the batched path to.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/manager.hpp"
#include "core/multi_task.hpp"
#include "core/policy.hpp"
#include "core/td_compressed.hpp"
#include "core/td_incremental.hpp"
#include "core/types.hpp"
#include "support/cache_line.hpp"
#include "support/contract.hpp"

namespace speedqm {

class BatchDecisionEngine {
 public:
  enum class Mode {
    kTabled,       ///< shared flat tD arena, O(1) probes (default)
    kIncremental,  ///< per-task IncrementalTdState lanes, no tables
  };

  /// Which decide_all sweep kernel to run (tabled mode; decisions are
  /// bit-identical either way — see file comment).
  enum class Kernel {
    kAuto,    ///< the widest vector kernel the build + CPU offer (scalar
              ///< when none is usable)
    kScalar,  ///< the scalar sweep (the differential baseline)
  };

  /// Binds to one PolicyEngine per task. All tasks must share the quality
  /// level count (one quality axis, as in compose_tasks). Tabled mode
  /// compiles every task's tD table into one arena up front, flat or
  /// delta-coded per `layout` (layout is ignored by Mode::kIncremental,
  /// which stores no tables).
  explicit BatchDecisionEngine(std::vector<const PolicyEngine*> engines,
                               Mode mode = Mode::kTabled,
                               ArenaLayout layout = ArenaLayout::kFlat,
                               Kernel kernel = Kernel::kAuto);


  // table_ holds raw pointers into this object's own arena_, so a copy
  // would silently keep aliasing the source's buffer (use-after-free once
  // the source dies). Declaring the copy ops deleted also suppresses the
  // implicit moves, which would leave the moved-from cursors dangling.
  BatchDecisionEngine(const BatchDecisionEngine&) = delete;
  BatchDecisionEngine& operator=(const BatchDecisionEngine&) = delete;

  std::size_t num_tasks() const { return engines_.size(); }
  int num_levels() const { return nq_; }
  Mode mode() const { return mode_; }
  ArenaLayout layout() const { return layout_; }
  Kernel kernel() const { return kernel_choice_; }
  /// True when decide_all runs a vector kernel in this instance: the
  /// build options and the running CPU offer one and the kernel choice
  /// does not force scalar.
  bool simd_active() const { return simd_; }
  StateIndex num_states(std::size_t task) const { return n_[task]; }

  /// One composite decision point: for every task τ with states[τ] <
  /// num_states(τ), writes Γ_τ(states[τ], t) to out[τ] and advances τ's
  /// warm hint; finished tasks are skipped (out untouched, no ops).
  /// Returns the summed Decision.ops of the pass.
  std::uint64_t decide_all(const StateIndex* states, TimeNs t, Decision* out) {
    return sweep_(*this, states, t, out);
  }

  /// The sequential reference path: the same decision (and ops) decide_all
  /// would produce for this task, through the same warm-hint cursor.
  Decision decide_one(std::size_t task, StateIndex s, TimeNs t);

  /// Direct read of the compiled border tD_τ(s, q) (tabled mode only).
  TimeNs td(std::size_t task, StateIndex s, Quality q) const;

  /// Re-arms for a new cycle: warm hints go cold; incremental lanes rewind
  /// to their compiled state-0 chains (forests are kept).
  void reset();

  /// Arena bytes (tabled) or summed lane bytes (incremental).
  std::size_t memory_bytes() const;
  /// Precomputed integers: sum of n_τ * |Q| in tabled mode, 0 otherwise.
  std::size_t num_table_integers() const;

 private:
  Decision decide_row(const TimeNs* row, Quality hint, TimeNs t) const;
  std::uint64_t decide_all_incremental(const StateIndex* states, TimeNs t,
                                       Decision* out);

  /// The sweep adapters decide_all dispatches through (batch_engine.cpp).
  struct Sweeps;
  using SweepFn = std::uint64_t (*)(BatchDecisionEngine&, const StateIndex*,
                                    TimeNs, Decision*);

  std::vector<const PolicyEngine*> engines_;
  Mode mode_;
  ArenaLayout layout_ = ArenaLayout::kFlat;
  Kernel kernel_choice_ = Kernel::kAuto;
  /// decide_all's sweep, resolved once at construction from the mode, the
  /// arena layout, the kernel choice and what the running CPU executes.
  SweepFn sweep_ = nullptr;
  bool simd_ = false;  ///< sweep_ is a vector kernel
  int nq_ = 0;

  // Task-major SoA cursors (the decide_all hot state).
  std::vector<const TimeNs*> table_;  ///< per task: arena base of its tD table
  std::vector<StateIndex> n_;         ///< per task: number of states
  CacheLineVector<Quality> hint_;     ///< per task: warm hint (-1 = cold)

  std::vector<TimeNs> arena_;         ///< tabled flat: all tables back to back
  std::vector<CompressedTdTable> ctable_;  ///< tabled compressed: per task
  std::vector<std::unique_ptr<IncrementalTdState>> inc_;  ///< incremental mode
};

/// Epoch protocol shared by the batched and sequential multi-task managers
/// (see file comment). Plugs into the unmodified cyclic executor as a
/// QualityManager over the composed interleaved schedule; the whole
/// epoch's op count is charged to the refreshing call, cached hits are
/// free. Cache-line aligned, like its per-task state: each shard's
/// manager is written every step by its own worker (support/cache_line.hpp).
class alignas(kCacheLineBytes) MultiTaskEpochManager : public QualityManager {
 public:
  /// Inline so a caller holding the concrete manager type pays no call
  /// for the common case: a cached decision from the current epoch.
  Decision decide(StateIndex s, TimeNs t) final {
    const TaskRef& ref = system_->origin(s);
    SPEEDQM_ASSERT(ref.local_action == next_local_[ref.task],
                   "multi-task epoch manager: composite progression out of order");
    // Composite decision point when the task has no unconsumed decision;
    // the whole epoch is charged to the refreshing call.
    const std::uint64_t epoch_ops = fresh_[ref.task] ? 0 : begin_epoch(t);
    Decision d = cached_[ref.task];
    d.relax_steps = 1;
    d.ops = epoch_ops;
    fresh_[ref.task] = 0;
    ++next_local_[ref.task];
    return d;
  }
  void reset() final;

  /// Composite decision points taken since construction/reset.
  std::size_t epochs() const { return epochs_; }

 protected:
  explicit MultiTaskEpochManager(const ComposedSystem& system);

  /// Decides all unfinished tasks (states[τ] < task size) at observed time
  /// t into out[]; returns total ops. Finished tasks must be skipped.
  virtual std::uint64_t refresh(const StateIndex* states, TimeNs t,
                                Decision* out) = 0;
  /// Re-arms the decision engines for a new cycle.
  virtual void reset_engines() = 0;

  const ComposedSystem& system() const { return *system_; }
  /// Number of local actions of `task` (cached at construction).
  StateIndex task_size(std::size_t task) const { return sizes_[task]; }

 private:
  /// Composite decision point: re-decides every unfinished task at `t`
  /// and returns the epoch's total ops.
  std::uint64_t begin_epoch(TimeNs t);

  const ComposedSystem* system_;
  std::vector<StateIndex> sizes_;       ///< per task: local action count
  CacheLineVector<StateIndex> next_local_;  ///< per task: next local action
  CacheLineVector<Decision> cached_;  ///< per task: last epoch's decision
  CacheLineVector<std::uint8_t> fresh_;  ///< per task: cached, unconsumed
  std::size_t epochs_ = 0;
};

/// Batched epoch manager: one BatchDecisionEngine sweep per epoch.
class BatchMultiTaskManager final : public MultiTaskEpochManager {
 public:
  /// `engines[τ]` decides task τ; it must span exactly that task's local
  /// actions. Engine lifetimes must cover the manager's.
  BatchMultiTaskManager(const ComposedSystem& system,
                        std::vector<const PolicyEngine*> engines,
                        BatchDecisionEngine::Mode mode =
                            BatchDecisionEngine::Mode::kTabled,
                        ArenaLayout layout = ArenaLayout::kFlat,
                        BatchDecisionEngine::Kernel kernel =
                            BatchDecisionEngine::Kernel::kAuto);

  std::string name() const override;
  std::size_t memory_bytes() const override { return engine_.memory_bytes(); }
  std::size_t num_table_integers() const override {
    return engine_.num_table_integers();
  }

  BatchDecisionEngine& engine() { return engine_; }

 protected:
  std::uint64_t refresh(const StateIndex* states, TimeNs t,
                        Decision* out) override {
    return engine_.decide_all(states, t, out);
  }
  void reset_engines() override { engine_.reset(); }

 private:
  BatchDecisionEngine engine_;
};

/// Sequential epoch manager: per-task decisions one virtual call at a time
/// — today's architecture, kept as the bench baseline and the reference
/// the batched path must match bit for bit. Mode selects the per-task
/// manager: kTabled wraps each engine in a TabledNumericManager,
/// kIncremental in a NumericManager(Strategy::kIncremental).
class SequentialMultiTaskManager final : public MultiTaskEpochManager {
 public:
  /// `layout` selects the per-task TabledNumericManager arena in kTabled
  /// mode (so the compressed layout has a sequential reference too).
  SequentialMultiTaskManager(const ComposedSystem& system,
                             std::vector<const PolicyEngine*> engines,
                             BatchDecisionEngine::Mode mode =
                                 BatchDecisionEngine::Mode::kTabled,
                             ArenaLayout layout = ArenaLayout::kFlat);

  std::string name() const override;
  std::size_t memory_bytes() const override;

 protected:
  std::uint64_t refresh(const StateIndex* states, TimeNs t,
                        Decision* out) override;
  void reset_engines() override;

 private:
  std::vector<std::unique_ptr<QualityManager>> managers_;
  BatchDecisionEngine::Mode mode_;
};

}  // namespace speedqm

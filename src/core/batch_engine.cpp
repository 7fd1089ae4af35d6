#include "core/batch_engine.hpp"

#include <type_traits>

#include "core/batch_sweep.hpp"
#include "core/fast_manager.hpp"
#include "core/numeric_manager.hpp"
#include "support/contract.hpp"

namespace speedqm {

using sweep_detail::CompressedArena;
using sweep_detail::FlatArena;
using sweep_detail::SweepArgs;

/// decide_all's dispatch targets, one function per (arena, kernel): each
/// binds the engine's SoA cursors and arena to one sweep kernel. pick()
/// runs once at construction, so a sweep costs one indirect call.
struct BatchDecisionEngine::Sweeps {
  template <class Arena>
  using KernelFn = std::uint64_t (*)(const Arena&, const SweepArgs&);

  template <class Arena, KernelFn<Arena> kKernel>
  static std::uint64_t tabled(BatchDecisionEngine& e, const StateIndex* states,
                              TimeNs t, Decision* out) {
    const SweepArgs args{e.n_.data(), e.hint_.data(), e.engines_.size(),
                         e.nq_ - 1,   states,         t, out};
    if constexpr (std::is_same_v<Arena, CompressedArena>) {
      return kKernel(CompressedArena{e.ctable_.data()}, args);
    } else {
      return kKernel(
          FlatArena{e.table_.data(), static_cast<std::size_t>(e.nq_)}, args);
    }
  }

  static std::uint64_t incremental(BatchDecisionEngine& e,
                                   const StateIndex* states, TimeNs t,
                                   Decision* out) {
    return e.decide_all_incremental(states, t, out);
  }

  /// The widest kernel the build and the running CPU offer for one arena
  /// layout (the x86 kernels are picked by what the CPU executes, so one
  /// SPEEDQM_SIMD build serves every x86-64 machine), or the scalar sweep
  /// when `vector` is off or no vector kernel is usable.
  template <class Arena, KernelFn<Arena> kAvx512, KernelFn<Arena> kAvx2>
  static SweepFn widest(bool vector, bool* simd) {
    *simd = vector;
    if (vector && sweep_detail::avx512_usable()) return &tabled<Arena, kAvx512>;
    if (vector && sweep_detail::avx2_usable()) return &tabled<Arena, kAvx2>;
    *simd = false;
    return &tabled<Arena, &sweep_detail::sweep_scalar<Arena>>;
  }

  static SweepFn pick(const BatchDecisionEngine& e, bool* simd) {
    *simd = false;
    if (e.mode_ != Mode::kTabled) return &incremental;  // no arena to vectorize
    const bool vector = e.kernel_choice_ == Kernel::kAuto;
    if (e.layout_ == ArenaLayout::kCompressed) {
      return widest<CompressedArena, &sweep_detail::sweep_compressed_avx512,
                    &sweep_detail::sweep_compressed_avx2>(vector, simd);
    }
    return widest<FlatArena, &sweep_detail::sweep_flat_avx512,
                  &sweep_detail::sweep_flat_avx2>(vector, simd);
  }
};

// ---------------------------------------------------------------------------
// BatchDecisionEngine.
// ---------------------------------------------------------------------------

BatchDecisionEngine::BatchDecisionEngine(
    std::vector<const PolicyEngine*> engines, Mode mode, ArenaLayout layout,
    Kernel kernel)
    : engines_(std::move(engines)),
      mode_(mode),
      layout_(layout),
      kernel_choice_(kernel) {
  sweep_ = Sweeps::pick(*this, &simd_);
  SPEEDQM_REQUIRE(!engines_.empty(), "BatchDecisionEngine: need at least one task");
  for (const auto* e : engines_) {
    SPEEDQM_REQUIRE(e != nullptr, "BatchDecisionEngine: null engine");
  }
  nq_ = engines_.front()->num_levels();
  for (const auto* e : engines_) {
    SPEEDQM_REQUIRE(e->num_levels() == nq_,
                    "BatchDecisionEngine: tasks must share the quality level count");
  }

  const std::size_t T = engines_.size();
  n_.resize(T);
  hint_.assign(T, -1);
  for (std::size_t task = 0; task < T; ++task) {
    n_[task] = engines_[task]->num_states();
  }

  if (mode_ != Mode::kTabled) {
    inc_.reserve(T);
    for (std::size_t task = 0; task < T; ++task) {
      inc_.push_back(std::make_unique<IncrementalTdState>(*engines_[task]));
    }
  } else if (layout_ == ArenaLayout::kCompressed) {
    ctable_.reserve(T);
    for (std::size_t task = 0; task < T; ++task) {
      ctable_.emplace_back(*engines_[task]);
    }
  } else {
    // One arena for every task's flat tD table (row-major [state][quality],
    // the TabledNumericManager / RegionCompiler layout) — back to back so
    // the sweep's working set is contiguous. Guard entries pad both ends:
    // the vector kernels read each lane's whole [h-1, h+2] neighbourhood
    // window with one unaligned load, and the window of a cold hint at the
    // first row (h = -1) or of a just-finished task at the arena's last
    // table (s = n) must stay inside the allocation. Bounds: front, h-1
    // with h >= -1 reaches 2 entries before a row; back, s = n with
    // h <= nq-1 reaches nq + 1 entries past a table's end.
    // Each table is compiled straight into its arena slot, with one
    // scratch stack for all of them.
    const std::size_t front_pad = 2;
    const std::size_t back_pad = static_cast<std::size_t>(nq_) + 2;
    std::size_t total = 0;
    for (std::size_t task = 0; task < T; ++task) {
      total += n_[task] * static_cast<std::size_t>(nq_);
    }
    arena_.assign(front_pad + total + back_pad, 0);
    table_.resize(T);
    TdTableScratch scratch;
    TimeNs* base = arena_.data() + front_pad;
    for (std::size_t task = 0; task < T; ++task) {
      table_[task] = base;
      engines_[task]->td_table_into(base, scratch);
      base += n_[task] * static_cast<std::size_t>(nq_);
    }
  }
}

/// The tabled per-task decision through the shared prefix search — the
/// canonical reference the sweep's warm fast path must match probe for
/// probe (same outcomes, same Decision.ops). This is the same call the
/// sequential TabledNumericManager path bottoms out in, which is what
/// keeps batched decisions bit-identical to it.
Decision BatchDecisionEngine::decide_row(const TimeNs* row, Quality hint,
                                         TimeNs t) const {
  return decide_max_quality(nq_ - 1, hint, [&](Quality q, std::uint64_t*) {
    return row[q] >= t;
  });
}

std::uint64_t BatchDecisionEngine::decide_all_incremental(
    const StateIndex* states, TimeNs t, Decision* out) {
  const std::size_t T = engines_.size();
  std::uint64_t total = 0;
  for (std::size_t task = 0; task < T; ++task) {
    const StateIndex s = states[task];
    if (s >= n_[task]) continue;
    const Decision d =
        engines_[task]->decide_incremental(*inc_[task], s, t, hint_[task]);
    hint_[task] = d.quality;
    out[task] = d;
    total += d.ops;
  }
  return total;
}

Decision BatchDecisionEngine::decide_one(std::size_t task, StateIndex s,
                                         TimeNs t) {
  SPEEDQM_REQUIRE(task < engines_.size(), "decide_one: task out of range");
  SPEEDQM_REQUIRE(s < n_[task], "decide_one: state out of range");
  Decision d;
  if (mode_ == Mode::kIncremental) {
    d = engines_[task]->decide_incremental(*inc_[task], s, t, hint_[task]);
  } else if (layout_ == ArenaLayout::kCompressed) {
    d = ctable_[task].decide_warm(s, t, hint_[task]);
  } else {
    d = decide_row(table_[task] + s * static_cast<std::size_t>(nq_),
                   hint_[task], t);
  }
  hint_[task] = d.quality;
  return d;
}

TimeNs BatchDecisionEngine::td(std::size_t task, StateIndex s, Quality q) const {
  SPEEDQM_REQUIRE(mode_ == Mode::kTabled, "td: tabled mode only");
  SPEEDQM_REQUIRE(task < engines_.size(), "td: task out of range");
  SPEEDQM_REQUIRE(s < n_[task], "td: state out of range");
  SPEEDQM_REQUIRE(q >= 0 && q < nq_, "td: quality out of range");
  if (layout_ == ArenaLayout::kCompressed) return ctable_[task].td(s, q);
  return table_[task][s * static_cast<std::size_t>(nq_) +
                      static_cast<std::size_t>(q)];
}

void BatchDecisionEngine::reset() {
  hint_.assign(hint_.size(), -1);
  for (auto& state : inc_) state->rewind();
}

std::size_t BatchDecisionEngine::memory_bytes() const {
  std::size_t bytes = arena_.size() * sizeof(TimeNs);  // guard pads included
  for (const auto& table : ctable_) bytes += table.memory_bytes();
  for (const auto& state : inc_) bytes += state->memory_bytes();
  return bytes;
}

std::size_t BatchDecisionEngine::num_table_integers() const {
  // The logical |A| * |Q| metric, layout-independent (memory_bytes reports
  // what the layout actually stores; the flat arena's guard padding is not
  // table content).
  std::size_t integers = 0;
  if (mode_ == Mode::kTabled && layout_ == ArenaLayout::kFlat) {
    for (std::size_t task = 0; task < n_.size(); ++task) {
      integers += n_[task] * static_cast<std::size_t>(nq_);
    }
  }
  for (const auto& table : ctable_) integers += table.num_integers();
  return integers;
}

// ---------------------------------------------------------------------------
// Epoch managers.
// ---------------------------------------------------------------------------

MultiTaskEpochManager::MultiTaskEpochManager(const ComposedSystem& system)
    : system_(&system),
      next_local_(system.num_tasks(), 0),
      cached_(system.num_tasks()),
      fresh_(system.num_tasks(), 0) {
  sizes_.reserve(system.num_tasks());
  for (std::size_t task = 0; task < system.num_tasks(); ++task) {
    sizes_.push_back(system.task_size(task));
  }
}

std::uint64_t MultiTaskEpochManager::begin_epoch(TimeNs t) {
  // Every unfinished task is (re-)decided at the current observed time.
  // Tasks whose previous decision was still cached get a fresher one —
  // time has advanced since theirs was taken.
  const std::uint64_t ops = refresh(next_local_.data(), t, cached_.data());
  for (std::size_t task = 0; task < fresh_.size(); ++task) {
    fresh_[task] = next_local_[task] < sizes_[task] ? 1 : 0;
  }
  ++epochs_;
  return ops;
}

void MultiTaskEpochManager::reset() {
  next_local_.assign(next_local_.size(), 0);
  fresh_.assign(fresh_.size(), 0);
  epochs_ = 0;
  reset_engines();
}

BatchMultiTaskManager::BatchMultiTaskManager(
    const ComposedSystem& system, std::vector<const PolicyEngine*> engines,
    BatchDecisionEngine::Mode mode, ArenaLayout layout,
    BatchDecisionEngine::Kernel kernel)
    : MultiTaskEpochManager(system),
      engine_(std::move(engines), mode, layout, kernel) {
  SPEEDQM_REQUIRE(engine_.num_tasks() == system.num_tasks(),
                  "BatchMultiTaskManager: one engine per task required");
  for (std::size_t task = 0; task < engine_.num_tasks(); ++task) {
    SPEEDQM_REQUIRE(engine_.num_states(task) == system.task_size(task),
                    "BatchMultiTaskManager: engine does not span its task");
  }
}

std::string BatchMultiTaskManager::name() const {
  std::string name = engine_.mode() == BatchDecisionEngine::Mode::kTabled
                         ? "batch-multitask-tabled"
                         : "batch-multitask-incremental";
  if (engine_.mode() == BatchDecisionEngine::Mode::kTabled &&
      engine_.layout() == ArenaLayout::kCompressed) {
    name += "-compressed";
  }
  return name;
}

SequentialMultiTaskManager::SequentialMultiTaskManager(
    const ComposedSystem& system, std::vector<const PolicyEngine*> engines,
    BatchDecisionEngine::Mode mode, ArenaLayout layout)
    : MultiTaskEpochManager(system), mode_(mode) {
  SPEEDQM_REQUIRE(engines.size() == system.num_tasks(),
                  "SequentialMultiTaskManager: one engine per task required");
  managers_.reserve(engines.size());
  for (std::size_t task = 0; task < engines.size(); ++task) {
    const PolicyEngine* engine = engines[task];
    SPEEDQM_REQUIRE(engine != nullptr, "SequentialMultiTaskManager: null engine");
    SPEEDQM_REQUIRE(engine->num_states() == system.task_size(task),
                    "SequentialMultiTaskManager: engine does not span its task");
    if (mode == BatchDecisionEngine::Mode::kTabled) {
      managers_.push_back(std::make_unique<TabledNumericManager>(*engine, layout));
    } else {
      managers_.push_back(std::make_unique<NumericManager>(
          *engine, NumericManager::Strategy::kIncremental));
    }
  }
}

std::uint64_t SequentialMultiTaskManager::refresh(const StateIndex* states,
                                                  TimeNs t, Decision* out) {
  std::uint64_t total = 0;
  for (std::size_t task = 0; task < managers_.size(); ++task) {
    const StateIndex s = states[task];
    if (s >= task_size(task)) continue;
    const Decision d = managers_[task]->decide(s, t);
    out[task] = d;
    total += d.ops;
  }
  return total;
}

void SequentialMultiTaskManager::reset_engines() {
  for (auto& manager : managers_) manager->reset();
}

std::string SequentialMultiTaskManager::name() const {
  return mode_ == BatchDecisionEngine::Mode::kTabled
             ? "seq-multitask-tabled"
             : "seq-multitask-incremental";
}

std::size_t SequentialMultiTaskManager::memory_bytes() const {
  std::size_t bytes = 0;
  for (const auto& manager : managers_) bytes += manager->memory_bytes();
  return bytes;
}

}  // namespace speedqm

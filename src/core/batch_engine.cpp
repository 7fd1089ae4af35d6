#include "core/batch_engine.hpp"

#include "core/batch_sweep.hpp"
#include "core/fast_manager.hpp"
#include "core/numeric_manager.hpp"
#include "support/contract.hpp"

// The NEON backend lives here rather than in its own translation unit:
// NEON is part of the aarch64 baseline ISA, so no special compile flags
// are needed and no runtime CPU check beyond compile-time detection.
#if defined(SPEEDQM_SIMD) && defined(__aarch64__) && defined(__ARM_NEON)
#define SPEEDQM_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace speedqm {

namespace {

using sweep_detail::CompressedArena;
using sweep_detail::FlatArena;
using sweep_detail::ScalarBackend;
using sweep_detail::SweepArgs;

#if SPEEDQM_SIMD_NEON

struct NeonBackend {
  static constexpr int kLanes = 2;
  using Vec = int64x2_t;
  using Mask = uint64x2_t;

  static Vec load(const std::int64_t* p) { return vld1q_s64(p); }
  static void store(std::int64_t* p, Vec v) { vst1q_s64(p, v); }
  static Vec splat(std::int64_t x) { return vdupq_n_s64(x); }
  static Vec sub(Vec a, Vec b) { return vsubq_s64(a, b); }
  static Vec add(Vec a, Vec b) { return vaddq_s64(a, b); }
  static Vec shr1(Vec a) {  // logical >> 1 (operands are non-negative)
    return vreinterpretq_s64_u64(vshrq_n_u64(vreinterpretq_u64_s64(a), 1));
  }
  static Mask cmpge(Vec a, Vec b) { return vcgeq_s64(a, b); }
  static Mask cmpgt(Vec a, Vec b) { return vcgtq_s64(a, b); }
  static Mask cmpeq(Vec a, Vec b) { return vceqq_s64(a, b); }
  static Mask m_and(Mask a, Mask b) { return vandq_u64(a, b); }
  static Mask m_andnot(Mask a, Mask b) { return vbicq_u64(b, a); }  // b & ~a
  static Mask m_or(Mask a, Mask b) { return vorrq_u64(a, b); }
  static Vec select(Mask m, Vec a, Vec b) { return vbslq_s64(m, a, b); }
  static std::uint32_t bits(Mask m) {
    return static_cast<std::uint32_t>(vgetq_lane_u64(m, 0) & 1) |
           (static_cast<std::uint32_t>(vgetq_lane_u64(m, 1) & 1) << 1);
  }
};

#endif  // SPEEDQM_SIMD_NEON

/// Best usable vector kernel for one engine instance (0 none, 1 AVX2,
/// 2 AVX512, 3 NEON). The x86 kernels are picked by what the running CPU
/// executes, so one SPEEDQM_SIMD build serves every x86-64 machine. Both
/// arena layouts vectorize: the compressed layout block-decodes probes in
/// registers (see the per-ISA decode_window helpers), so it no longer
/// forces the scalar kernel.
int pick_vector_kernel(BatchDecisionEngine::Kernel kernel,
                       BatchDecisionEngine::Mode mode) {
  if (kernel == BatchDecisionEngine::Kernel::kScalar ||
      mode != BatchDecisionEngine::Mode::kTabled) {
    return 0;  // incremental mode has no arena to vectorize over
  }
#if SPEEDQM_SIMD_NEON
  return 3;
#else
  if (sweep_detail::avx512_usable()) return 2;
  if (sweep_detail::avx2_usable()) return 1;
  return 0;
#endif
}

/// Task lanes one vector group of the given kernel holds — the occupancy
/// the adaptive dispatch needs before vector groups stop running ragged.
std::uint64_t kernel_lanes(int kernel_id) {
  switch (kernel_id) {
    case 2: return 8;  // AVX512
    case 1: return 4;  // AVX2
    case 3: return 2;  // NEON
    default: return 1;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// BatchDecisionEngine.
// ---------------------------------------------------------------------------

BatchDecisionEngine::BatchDecisionEngine(
    std::vector<const PolicyEngine*> engines, Mode mode, ArenaLayout layout,
    Kernel kernel)
    : engines_(std::move(engines)),
      mode_(mode),
      layout_(layout),
      kernel_choice_(kernel),
      vec_kernel_(pick_vector_kernel(kernel, mode)),
      active_kernel_(vec_kernel_) {
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
    const std::size_t front_pad = 2;
    const std::size_t back_pad = static_cast<std::size_t>(nq_) + 2;
    table_.assign(T, nullptr);
    std::size_t total = 0;
    for (std::size_t task = 0; task < T; ++task) {
      total += n_[task] * static_cast<std::size_t>(nq_);
    }
    arena_.reserve(front_pad + total + back_pad);
    arena_.assign(front_pad, 0);
    std::vector<std::size_t> offset(T);
    for (std::size_t task = 0; task < T; ++task) {
      offset[task] = arena_.size();
      const std::vector<TimeNs> td = engines_[task]->td_table();
      arena_.insert(arena_.end(), td.begin(), td.end());
    }
    arena_.insert(arena_.end(), back_pad, 0);
    // Bases assigned after all inserts (reserve makes them stable anyway,
    // but do not depend on it).
    for (std::size_t task = 0; task < T; ++task) {
      table_[task] = arena_.data() + offset[task];
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

std::uint64_t BatchDecisionEngine::decide_all(const StateIndex* states,
                                              TimeNs t, Decision* out) {
  if (mode_ == Mode::kIncremental) {
    return decide_all_incremental(states, t, out);
  }
  SweepArgs args{n_.data(), hint_.data(), engines_.size(),
                 nq_ - 1,   states,       t,
                 out,       nullptr};
  // Occupancy-adaptive dispatch (kAuto with a usable vector kernel): one
  // sweep in 16 records SweepStats, and the following sweeps run whichever
  // kernel the sample justifies — vector only when enough warm live lanes
  // fill a group (live >= kLanes, at least half the live lanes warm);
  // otherwise the branchy scalar kernel's early exits win (drained mixes,
  // reset-heavy streams). Sampling is opt-in per sweep so the unsampled
  // hot path never touches the counters. sweep_seq_ survives reset() on
  // purpose: a reset makes every lane cold for exactly one sweep, and
  // pinning samples to that sweep would lock cyclic workloads to scalar.
  SweepStats sample;
  const bool sampling = kernel_choice_ == Kernel::kAuto && vec_kernel_ != 0 &&
                        (sweep_seq_++ & 0xF) == 0;
  if (sampling) args.stats = &sample;
  const int kid = active_kernel_;
  std::uint64_t ops;
  if (layout_ == ArenaLayout::kCompressed) {
    const CompressedArena arena{ctable_.data()};
    switch (kid) {
      case 2:
        ops = sweep_detail::sweep_compressed_avx512(arena, args);
        break;
      case 1:
        ops = sweep_detail::sweep_compressed_avx2(arena, args);
        break;
#if SPEEDQM_SIMD_NEON
      case 3:
        ops = args.stats
                  ? sweep_detail::sweep_staged<CompressedArena, NeonBackend,
                                               true>(arena, args)
                  : sweep_detail::sweep_staged<CompressedArena, NeonBackend>(
                        arena, args);
        break;
#endif
      default:
        ops = args.stats
                  ? sweep_detail::sweep_staged<CompressedArena, ScalarBackend,
                                               true>(arena, args)
                  : sweep_detail::sweep_staged<CompressedArena, ScalarBackend>(
                        arena, args);
        break;
    }
  } else {
    const FlatArena arena{table_.data(), static_cast<std::size_t>(nq_)};
    switch (kid) {
      case 2:
        ops = sweep_detail::sweep_flat_avx512(arena, args);
        break;
      case 1:
        ops = sweep_detail::sweep_flat_avx2(arena, args);
        break;
#if SPEEDQM_SIMD_NEON
      case 3:
        ops = args.stats
                  ? sweep_detail::sweep_staged<FlatArena, NeonBackend, true>(
                        arena, args)
                  : sweep_detail::sweep_staged<FlatArena, NeonBackend>(arena,
                                                                       args);
        break;
#endif
      default:
        ops = args.stats
                  ? sweep_detail::sweep_staged<FlatArena, ScalarBackend, true>(
                        arena, args)
                  : sweep_detail::sweep_staged<FlatArena, ScalarBackend>(arena,
                                                                         args);
        break;
    }
  }
  if (sampling) {
    stats_ = sample;
    const std::uint64_t lanes = kernel_lanes(vec_kernel_);
    active_kernel_ =
        (sample.live >= lanes && sample.warm * 2 >= sample.live)
            ? vec_kernel_
            : 0;
  }
  return ops;
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

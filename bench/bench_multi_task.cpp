// Experiment B1 — batched multi-task decision engine + streaming replay.
//
// Part 1: composite-decision cost. T concurrent tasks (scaled-down MPEG +
// heterogeneous synthetics) share one platform clock; at every composite
// decision point all unfinished tasks are re-decided. Engines:
//   * sequential        — per-task NumericManager(kIncremental) virtual
//                         calls: the pre-batch serving path for task sets
//                         assembled at run time (docs/perf.md recommended
//                         exactly this for multi-task compositions). The
//                         >= 4x gate is against this incumbent.
//   * sequential-tabled — per-task TabledNumericManager virtual calls:
//                         same probes as the batched sweep, so this row
//                         isolates the pure dispatch/SoA-layout win
//                         (typically 2-2.5x; gated >= 1.2x at T >= 8 —
//                         strict dominance with headroom for shared-runner
//                         noise on these ~tens-of-ns measurements).
//   * batched           — one BatchDecisionEngine::decide_all sweep over
//                         task-major SoA cursors into the shared flat
//                         arena, default kernel (the vector sweep where the
//                         build/CPU carries one — the production path). The
//                         vector-vs-scalar RATIO is machine-relative, so it
//                         is SHAPE-gated in part 2's log and never
//                         baselined (same policy as bench_sharded's
//                         scaling factor); the batched ns cells themselves
//                         are baselined and compared one-sidedly.
//   * batched-compressed— the same sweep over the delta-coded arena
//                         (core/td_compressed.hpp): slower probes (decode)
//                         bought with ~2.2-2.4x less table memory.
// Decisions are asserted bit-identical across ALL engines — including the
// vector kernel when this build/machine carries one — and batched ops must
// equal sequential-tabled ops exactly and stay flat as T grows.
//
// Part 2: the SIMD gate. decide_all's vector kernel (AVX-512/AVX2 under
// SPEEDQM_SIMD, runtime-dispatched) must beat the one-lane
// compare/select scalar template — the branch-light fallback dataflow the
// vector kernels instantiate — >= 2x per composite decision at T >= 8
// (floor overridable via SPEEDQM_SIMD_MIN_SPEEDUP, strictly validated;
// SHAPE-SKIP where no vector kernel runs). The SHIPPED scalar kernel goes
// beyond that template (branchy early-exit resolve, near-perfect branch
// prediction under a smooth walk) and is printed beside it with a
// sanity-only floor (vector >= 0.90x branchy: never a material
// pessimization of the default path). The gate cell is a UNIFORM serving
// pool — T identical streams sharing the clock, per-task table copies,
// states advancing in lockstep, every lane live and warm — the
// steady-state regime the kernel exists for (N subscribers to the same
// content is the canonical serving shape); kernels are timed interleaved
// so shared-runner noise windows hit every side. The part-1 heterogeneous
// mix reports the production blend, where per-lane divergence and the
// mix's finished-task drain tail dilute lane parallelism; both regimes
// are bit-identity-asserted across kernels. The same steady cell also
// carries the compressed-arena ratio gate: the delta-coded sweep (vector
// block decode in registers) must hold >= 0.90x of the flat sweep
// (SPEEDQM_COMPRESSED_MIN_RATIO override; SHAPE-SKIP without a vector
// kernel — the ratio is machine-relative, never baselined).
//
// Part 2b: the climb gate. A climb-heavy stream — the shared target
// jumping between a low and a high quality every epoch, so EVERY lane's
// warm hint is >= 2 levels off and every epoch pays the full
// climb/fall search — pins the vectorized lock-step search
// (sweep_detail::search_lanes): the vector kernel must beat the
// one-lane template >= 2x (SPEEDQM_CLIMB_MIN_SPEEDUP override, strictly
// validated; SHAPE-SKIP without a vector kernel), with the same 0.90x
// sanity floor against the branchy scalar and bit-identity (ops
// included) across scalar/vector x flat/compressed. Its ns cells land in
// BENCH_multitask.json as batched-climb / batched-climb-scalar and are
// baselined like every other row.
//
// Part 3: streaming million-cycle replay. A small composed mix runs for
// 10^6 cycles with ExecutorOptions::retain_steps = false and a
// RunSummaryAccumulator sink — no per-step records are materialized
// (memory O(1) per step instead of O(cycles * n)).
//
// Writes BENCH_multitask.json (ns and ops per decision per engine/T cell),
// gated in CI against bench/baseline/BENCH_multitask.json by
// tools/compare_bench.py.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/batch_sweep.hpp"
#include "core/fast_manager.hpp"
#include "core/numeric_manager.hpp"
#include "sim/metrics.hpp"
#include "workload/synthetic.hpp"

#include "bench_common.hpp"

using namespace speedqm;
using namespace speedqm::bench;

namespace {

/// One recorded composite decision point: every task's state plus the
/// shared observed time.
struct EpochStream {
  std::size_t num_tasks = 0;
  std::size_t num_epochs = 0;
  std::vector<StateIndex> states;  ///< [epoch * num_tasks + task]
  std::vector<TimeNs> times;       ///< per epoch
};

/// Builds the epoch stream the executor's epoch protocol would produce on
/// a full cycle: every live task advances one local action per epoch
/// (finished tasks drop out), and the shared time follows a smooth
/// quality walk of the largest task — stepping at most one level every
/// few epochs, the warm-start regime a feasible controlled run settles
/// into (the mixed policy's smoothness keeps quality far steadier than a
/// per-epoch step; see the Fig. 7 reproduction).
EpochStream make_epochs(const MultiTaskMix& mix,
                        const std::vector<const PolicyEngine*>& engines,
                        std::uint64_t seed) {
  EpochStream stream;
  stream.num_tasks = engines.size();
  std::size_t ref = 0;
  for (std::size_t task = 0; task < engines.size(); ++task) {
    stream.num_epochs =
        std::max(stream.num_epochs, static_cast<std::size_t>(
                                        engines[task]->num_states()));
    if (engines[task]->num_states() > engines[ref]->num_states()) ref = task;
  }
  const PolicyEngine& walk_engine = *engines[ref];
  const int nq = walk_engine.num_levels();
  Quality target = nq / 2;
  std::uint64_t x = seed;
  stream.states.resize(stream.num_epochs * stream.num_tasks);
  stream.times.reserve(stream.num_epochs);
  for (std::size_t e = 0; e < stream.num_epochs; ++e) {
    for (std::size_t task = 0; task < stream.num_tasks; ++task) {
      // Tasks shorter than the epoch count are finished (s == n: skipped).
      stream.states[e * stream.num_tasks + task] = static_cast<StateIndex>(
          std::min<std::size_t>(e, engines[task]->num_states()));
    }
    if (e % 4 == 0) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const int step = static_cast<int>((x >> 33) % 3) - 1;
      target = std::min(nq - 2 > 0 ? nq - 2 : nq - 1,
                        std::max(1 < nq ? 1 : 0, target + step));
    }
    stream.times.push_back(
        walk_engine.td_online(static_cast<StateIndex>(
                                  std::min<std::size_t>(
                                      e, walk_engine.num_states() - 1)),
                              target));
  }
  (void)mix;
  return stream;
}

struct CellResult {
  double batched_ns_per_epoch = 0;
  double compressed_ns_per_epoch = 0;
  double tabled_ns_per_epoch = 0;
  double incremental_ns_per_epoch = 0;
  double batched_ops_per_decision = 0;
  double tabled_ops_per_decision = 0;
  double incremental_ops_per_decision = 0;
  std::size_t batched_table_bytes = 0;
  std::size_t compressed_table_bytes = 0;
  bool identical = true;
};

CellResult run_cell(std::size_t num_tasks, std::uint64_t seed,
                    std::vector<DecisionBenchRecord>& records) {
  MultiTaskMixSpec spec;
  spec.num_tasks = num_tasks;
  spec.seed = seed;
  spec.num_cycles = 4;
  MultiTaskMix mix(spec);
  const auto engines = mix.engines();
  const EpochStream stream = make_epochs(mix, engines, seed * 31 + 7);

  // The baselined batched row is the DEFAULT engine (the production path:
  // the vector kernel where the build/CPU carries one). The forced-scalar
  // twin is differential-checked here; its speed is compared on the
  // steady-state gate stream below. Refreshing the committed baseline on a
  // weak-vector machine is safe: the regression compare is one-sided, so
  // runners with stronger vector units only come out faster.
  BatchDecisionEngine batch(engines);
  BatchDecisionEngine batch_scalar(engines, BatchDecisionEngine::Mode::kTabled,
                                   ArenaLayout::kFlat,
                                   BatchDecisionEngine::Kernel::kScalar);
  BatchDecisionEngine batch_compressed(engines,
                                       BatchDecisionEngine::Mode::kTabled,
                                       ArenaLayout::kCompressed);
  // Baselines behind the QualityManager interface, exactly as the executor
  // invokes per-task managers.
  std::vector<std::unique_ptr<QualityManager>> tabled, incremental;
  for (const auto* engine : engines) {
    tabled.push_back(std::make_unique<TabledNumericManager>(*engine));
    incremental.push_back(std::make_unique<NumericManager>(
        *engine, NumericManager::Strategy::kIncremental));
  }

  const std::size_t T = stream.num_tasks;
  std::vector<Decision> out_batch(T), out_scalar(T), out_comp(T), out_seq(T);

  // Ops + equality pass (single traversal; ops are deterministic).
  CellResult cell;
  cell.batched_table_bytes = batch.memory_bytes();
  cell.compressed_table_bytes = batch_compressed.memory_bytes();
  std::uint64_t batch_ops = 0, tabled_ops = 0, incremental_ops = 0;
  std::size_t task_decisions = 0;
  batch.reset();
  batch_scalar.reset();
  batch_compressed.reset();
  for (auto& m : tabled) m->reset();
  for (auto& m : incremental) m->reset();
  for (std::size_t e = 0; e < stream.num_epochs; ++e) {
    const StateIndex* states = stream.states.data() + e * T;
    const TimeNs t = stream.times[e];
    batch_ops += batch.decide_all(states, t, out_batch.data());
    batch_scalar.decide_all(states, t, out_scalar.data());
    batch_compressed.decide_all(states, t, out_comp.data());
    for (std::size_t task = 0; task < T; ++task) {
      if (states[task] >= engines[task]->num_states()) continue;
      const Decision dt = tabled[task]->decide(states[task], t);
      const Decision di = incremental[task]->decide(states[task], t);
      tabled_ops += dt.ops;
      incremental_ops += di.ops;
      ++task_decisions;
      // Bit-identity across every engine (scalar/vector kernels, flat and
      // compressed arenas, per-task virtual calls); ops-identity for every
      // tabled-probe path.
      if (dt.quality != out_batch[task].quality ||
          dt.feasible != out_batch[task].feasible ||
          dt.ops != out_batch[task].ops ||
          di.quality != out_batch[task].quality ||
          out_scalar[task].quality != out_batch[task].quality ||
          out_scalar[task].ops != out_batch[task].ops ||
          out_scalar[task].feasible != out_batch[task].feasible ||
          out_comp[task].quality != out_batch[task].quality ||
          out_comp[task].ops != out_batch[task].ops ||
          out_comp[task].feasible != out_batch[task].feasible) {
        cell.identical = false;
      }
    }
  }
  const auto decisions = static_cast<double>(task_decisions);
  cell.batched_ops_per_decision = static_cast<double>(batch_ops) / decisions;
  cell.tabled_ops_per_decision = static_cast<double>(tabled_ops) / decisions;
  cell.incremental_ops_per_decision =
      static_cast<double>(incremental_ops) / decisions;

  // Wall-clock passes: one full epoch stream per run (reset included, as
  // the executor pays it per cycle), the four engines timed interleaved
  // (bench_common.hpp) so the speedup ratios the gates read stay stable
  // on shared runners. Calibration is on the slowest engine (per-task
  // incremental).
  const auto batch_once = [&](BatchDecisionEngine& engine, Decision* out) {
    engine.reset();
    for (std::size_t e = 0; e < stream.num_epochs; ++e) {
      engine.decide_all(stream.states.data() + e * T, stream.times[e], out);
    }
  };
  const auto sequential_once = [&](std::vector<std::unique_ptr<QualityManager>>&
                                       managers) {
    for (auto& m : managers) m->reset();
    for (std::size_t e = 0; e < stream.num_epochs; ++e) {
      const StateIndex* states = stream.states.data() + e * T;
      for (std::size_t task = 0; task < T; ++task) {
        if (states[task] >= engines[task]->num_states()) continue;
        out_seq[task] = managers[task]->decide(states[task], stream.times[e]);
      }
    }
  };
  const std::vector<double> wall = interleaved_min_ns(
      {[&] { batch_once(batch, out_batch.data()); },
       [&] { batch_once(batch_compressed, out_comp.data()); },
       [&] { sequential_once(tabled); },
       [&] { sequential_once(incremental); }},
      /*calibrate_on=*/3, /*min_calibrate_ns=*/4e6, /*rounds=*/12);
  const double batched_ns = wall[0];
  const double compressed_ns = wall[1];
  const double tabled_ns = wall[2];
  const double incremental_ns = wall[3];
  const auto epochs = static_cast<double>(stream.num_epochs);
  cell.batched_ns_per_epoch = batched_ns / epochs;
  cell.compressed_ns_per_epoch = compressed_ns / epochs;
  cell.tabled_ns_per_epoch = tabled_ns / epochs;
  cell.incremental_ns_per_epoch = incremental_ns / epochs;

  const int nq = engines.front()->num_levels();
  DecisionBenchRecord rec;
  rec.policy = "mixed";
  rec.n = num_tasks;
  rec.num_levels = nq;
  rec.engine = "batched";
  rec.ns_per_decision = cell.batched_ns_per_epoch;
  rec.ops_per_decision = cell.batched_ops_per_decision;
  records.push_back(rec);
  rec.engine = "batched-compressed";
  rec.ns_per_decision = cell.compressed_ns_per_epoch;
  rec.ops_per_decision = cell.batched_ops_per_decision;  // ops identical
  records.push_back(rec);
  rec.engine = "sequential";
  rec.ns_per_decision = cell.incremental_ns_per_epoch;
  rec.ops_per_decision = cell.incremental_ops_per_decision;
  records.push_back(rec);
  rec.engine = "sequential-tabled";
  rec.ns_per_decision = cell.tabled_ns_per_epoch;
  rec.ops_per_decision = cell.tabled_ops_per_decision;
  records.push_back(rec);
  return cell;
}

// ---------------------------------------------------------------------------
// Part 2 — the SIMD gate (steady-state stream, every lane live and warm).
// ---------------------------------------------------------------------------

/// Uniform-pool steady stream: every lane runs the same application, all
/// states advance in lockstep 0..n-1 cyclically, the shared time follows
/// one smooth quality walk — every lane live and warm every epoch.
EpochStream make_uniform_steady_epochs(const PolicyEngine& engine,
                                       std::size_t num_tasks,
                                       std::size_t num_epochs,
                                       std::uint64_t seed) {
  EpochStream stream;
  stream.num_tasks = num_tasks;
  stream.num_epochs = num_epochs;
  const int nq = engine.num_levels();
  const auto n = static_cast<std::size_t>(engine.num_states());
  Quality target = nq / 2;
  std::uint64_t x = seed;
  stream.states.resize(num_epochs * num_tasks);
  stream.times.reserve(num_epochs);
  for (std::size_t e = 0; e < num_epochs; ++e) {
    for (std::size_t task = 0; task < num_tasks; ++task) {
      stream.states[e * num_tasks + task] = static_cast<StateIndex>(e % n);
    }
    if (e % 8 == 0) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const int step = static_cast<int>((x >> 33) % 3) - 1;
      target = std::min(nq - 2 > 0 ? nq - 2 : nq - 1,
                        std::max(1 < nq ? 1 : 0, target + step));
    }
    stream.times.push_back(
        engine.td_online(static_cast<StateIndex>(e % n), target));
  }
  return stream;
}

/// Strictly parses a positive double from env var `name`, falling back to
/// `fallback` when unset. A malformed or non-positive override SHAPE-FAILs
/// (clearing *ok) and returns a negative sentinel — a bad override must
/// never let a gate pass vacuously (same policy as the missing-baseline
/// checks).
double env_floor(const char* name, double fallback, bool* ok) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || *end != '\0' || !(v > 0.0)) {
    std::printf("[SHAPE-FAIL] %s='%s' is not a positive number\n", name, env);
    *ok = false;
    return -1.0;
  }
  return v;
}

/// The gates' reference: the ISSUE-design scalar fallback — the one-lane
/// instantiation of the resolve_lanes compare/select template
/// (branch-free), falling through to the decide_max_quality ladder for
/// lanes the resolve leaves pending. This is exactly the dataflow the
/// vector kernels replicate lane-parallel. It runs over its own per-task
/// flat row copies, matching what the engine's arena (and the per-task
/// sequential managers) actually read — one shared copy would hand the
/// scalar baseline an unrealistically small working set.
class TemplateKernel {
 public:
  TemplateKernel(const PolicyEngine& engine, std::size_t num_tasks)
      : td_(engine.td_table()),
        qmax_(engine.num_levels() - 1),
        nq_(static_cast<std::size_t>(engine.num_levels())),
        hints_(num_tasks, -1),
        out_(num_tasks) {
    arena_.reserve(td_.size() * num_tasks);
    for (std::size_t task = 0; task < num_tasks; ++task) {
      arena_.insert(arena_.end(), td_.begin(), td_.end());
    }
  }

  void reset() { hints_.assign(hints_.size(), -1); }
  const Decision& out(std::size_t task) const { return out_[task]; }

  std::uint64_t pass(const StateIndex* states, TimeNs t) {
    using sweep_detail::ScalarBackend;
    const sweep_detail::ResolveConsts<ScalarBackend> consts(t, qmax_);
    std::uint64_t total = 0;
    const std::size_t num_tasks = hints_.size();
    for (std::size_t task = 0; task < num_tasks; ++task) {
      const TimeNs* row =
          arena_.data() + task * td_.size() +
          static_cast<std::size_t>(states[task]) * nq_;
      const Quality h = hints_[task];
      Decision d;
      if (h >= 0) {
        const std::int64_t vh = row[h];
        const std::int64_t vup = row[h >= qmax_ ? h : h + 1];
        const std::int64_t vdn = row[h <= kQmin ? h : h - 1];
        const auto r = sweep_detail::resolve_lanes<ScalarBackend>(
            vh, vup, vdn, h, consts);
        if (r.decided) {
          d.quality = static_cast<Quality>(r.q);
          d.ops = static_cast<std::uint64_t>(r.ops);
          d.feasible = r.inf == 0;
        } else {
          d = decide_max_quality(qmax_, h, [&](Quality q, std::uint64_t*) {
            return row[q] >= t;
          });
        }
      } else {
        d = decide_max_quality(qmax_, h, [&](Quality q, std::uint64_t*) {
          return row[q] >= t;
        });
      }
      hints_[task] = d.quality;
      out_[task] = d;
      total += d.ops;
    }
    return total;
  }

 private:
  std::vector<TimeNs> td_;
  Quality qmax_;
  std::size_t nq_;
  std::vector<Quality> hints_;
  std::vector<Decision> out_;
  std::vector<TimeNs> arena_;
};

bool run_simd_gate() {
  std::printf("\n--- SIMD decide_all gate (uniform pool, steady state) ---\n");
  bool ok = true;
  // One scaled-MPEG-like synthetic profile served to T subscribers.
  SyntheticSpec spec;
  spec.seed = 20070731;
  spec.num_actions = 64;
  spec.num_levels = 16;
  spec.budget_quality = 8;
  spec.num_cycles = 1;
  const SyntheticWorkload workload(spec);
  const PolicyEngine engine(workload.app(), workload.timing());

  TextTable table({"T", "template ns/epoch", "branchy ns/epoch",
                   "simd ns/epoch", "compressed ns/epoch", "vs template",
                   "vs branchy", "comp ratio", "kernel"});
  struct GateCell {
    std::size_t num_tasks;
    double vs_template;
    double vs_branchy;
    double comp_ratio;
    bool simd_active;
    bool identical;
  };
  std::vector<GateCell> cells;
  for (const std::size_t num_tasks : {8u, 32u}) {
    const EpochStream stream =
        make_uniform_steady_epochs(engine, num_tasks, 64, num_tasks * 977 + 3);
    const std::vector<const PolicyEngine*> engines(num_tasks, &engine);

    BatchDecisionEngine branchy(engines, BatchDecisionEngine::Mode::kTabled,
                                ArenaLayout::kFlat,
                                BatchDecisionEngine::Kernel::kScalar);
    // The gated engines run Kernel::kAuto, the widest vector kernel the
    // CPU executes, for every timed sweep. (kAuto degrades to scalar when
    // no vector ISA is usable; those cells SHAPE-SKIP below.)
    BatchDecisionEngine simd(engines, BatchDecisionEngine::Mode::kTabled,
                             ArenaLayout::kFlat,
                             BatchDecisionEngine::Kernel::kAuto);
    BatchDecisionEngine simd_comp(engines, BatchDecisionEngine::Mode::kTabled,
                                  ArenaLayout::kCompressed,
                                  BatchDecisionEngine::Kernel::kAuto);

    const std::size_t T = stream.num_tasks;
    TemplateKernel tmpl(engine, T);

    std::vector<Decision> out_a(T), out_b(T), out_c(T);
    // Identity across the template reference, the branchy kernel and the
    // vector kernel on flat AND compressed arenas on this stream (the
    // gate's own regime is bench-asserted, not only the epoch-protocol
    // stream of part 1).
    bool identical = true;
    branchy.reset();
    simd.reset();
    simd_comp.reset();
    tmpl.reset();
    for (std::size_t e = 0; e < stream.num_epochs; ++e) {
      const StateIndex* states = stream.states.data() + e * T;
      const std::uint64_t oa = branchy.decide_all(states, stream.times[e],
                                                  out_a.data());
      const std::uint64_t ob = simd.decide_all(states, stream.times[e],
                                               out_b.data());
      const std::uint64_t oc = simd_comp.decide_all(states, stream.times[e],
                                                    out_c.data());
      const std::uint64_t ot = tmpl.pass(states, stream.times[e]);
      if (oa != ob || oa != oc || oa != ot) identical = false;
      for (std::size_t task = 0; task < T; ++task) {
        if (out_a[task].quality != out_b[task].quality ||
            out_a[task].ops != out_b[task].ops ||
            out_a[task].feasible != out_b[task].feasible ||
            out_a[task].quality != out_c[task].quality ||
            out_a[task].ops != out_c[task].ops ||
            out_a[task].feasible != out_c[task].feasible ||
            out_a[task].quality != tmpl.out(task).quality ||
            out_a[task].ops != tmpl.out(task).ops) {
          identical = false;
        }
      }
    }

    // The template, branchy and vector kernels are timed interleaved
    // (bench_common.hpp) so shared-runner noise hits every side;
    // calibration is on the slowest side (the template).
    const auto engine_once = [&](BatchDecisionEngine& eng, Decision* out) {
      eng.reset();
      for (std::size_t e = 0; e < stream.num_epochs; ++e) {
        eng.decide_all(stream.states.data() + e * T, stream.times[e], out);
      }
    };
    const auto template_once = [&] {
      tmpl.reset();
      for (std::size_t e = 0; e < stream.num_epochs; ++e) {
        tmpl.pass(stream.states.data() + e * T, stream.times[e]);
      }
    };
    const std::vector<double> wall = interleaved_min_ns(
        {template_once, [&] { engine_once(branchy, out_a.data()); },
         [&] { engine_once(simd, out_b.data()); }},
        /*calibrate_on=*/0, /*min_calibrate_ns=*/3e6, /*rounds=*/10);
    const double tmpl_ns = wall[0];
    const double branchy_ns = wall[1];
    const double simd_ns = wall[2];
    // The compressed engine races the flat vector engine in its OWN
    // two-way interleave: folding its second working set into the main
    // interleave measurably pollutes the cache for the gated kernels.
    const std::vector<double> comp_wall = interleaved_min_ns(
        {[&] { engine_once(simd, out_b.data()); },
         [&] { engine_once(simd_comp, out_c.data()); }},
        /*calibrate_on=*/0, /*min_calibrate_ns=*/3e6, /*rounds=*/10);
    const double comp_ns = comp_wall[1];
    const auto epochs = static_cast<double>(stream.num_epochs);
    const double vs_template = tmpl_ns / simd_ns;
    const double vs_branchy = branchy_ns / simd_ns;
    // Compressed-vs-flat throughput ratio on the same vector kernel
    // (from the dedicated head-to-head race): >= 1 means the in-register
    // block decode fully hides the delta-decode work; the gate floor
    // bounds the tax.
    const double comp_ratio = comp_wall[0] / comp_ns;
    table.begin_row()
        .cell(num_tasks)
        .cell(tmpl_ns / epochs, 1)
        .cell(branchy_ns / epochs, 1)
        .cell(simd_ns / epochs, 1)
        .cell(comp_ns / epochs, 1)
        .cell(vs_template, 2)
        .cell(vs_branchy, 2)
        .cell(comp_ratio, 2)
        .cell(simd.simd_active() ? "vector" : "scalar-fallback");
    table.end_row();
    cells.push_back({num_tasks, vs_template, vs_branchy, comp_ratio,
                     simd.simd_active(), identical});
  }
  std::printf("%s", table.render().c_str());
  std::printf("(gate reference: the one-lane compare/select template the "
              "vector kernels instantiate; the shipped scalar kernel is the "
              "branchy early-exit resolve — faster than the template under "
              "a predictable walk — shown for honesty, sanity-gated only)\n\n");

  for (const GateCell& cell : cells) {
    ok &= shape_check(
        "template/branchy/simd flat/compressed bit-identical on steady "
        "stream (T=" +
            std::to_string(cell.num_tasks) + ")",
        cell.identical);
    if (!cell.simd_active) {
      std::printf("[SHAPE-SKIP] SIMD >= 2x and compressed-ratio gates "
                  "(T=%zu): no vector kernel in this build/on this CPU "
                  "(SPEEDQM_SIMD=OFF or unsupported ISA)\n", cell.num_tasks);
      continue;
    }
    // The floors are machine-relative (kernels raced on the SAME runner),
    // so they are SHAPE-gated here and never baselined; the env overrides
    // exist for runners whose vector units are measured weak
    // (virtualized/downclocked vector paths).
    const double floor = env_floor("SPEEDQM_SIMD_MIN_SPEEDUP", 2.0, &ok);
    if (floor < 0) continue;
    char claim[160];
    std::snprintf(claim, sizeof(claim),
                  "SIMD decide_all >= %.2fx the one-lane scalar template per "
                  "composite decision (T=%zu, measured %.2fx)",
                  floor, cell.num_tasks, cell.vs_template);
    ok &= shape_check(claim, cell.vs_template >= floor);
    // Sanity floor against the shipped branchy scalar: the vector kernel
    // must never be a material pessimization of the default path (on
    // machines with real vector units it should be well above 1x; the
    // 0.9 floor leaves room for virtualized vector execution only).
    char sanity[160];
    std::snprintf(sanity, sizeof(sanity),
                  "SIMD decide_all not a pessimization vs the branchy "
                  "scalar kernel (T=%zu, measured %.2fx >= 0.90x)",
                  cell.num_tasks, cell.vs_branchy);
    ok &= shape_check(sanity, cell.vs_branchy >= 0.90);
    // The compressed arena must hold >= 0.90x of flat throughput on the
    // steady cell: the block decode runs in registers, so the only tax
    // left is the decode ALU work the gate bounds here.
    const double ratio_floor =
        env_floor("SPEEDQM_COMPRESSED_MIN_RATIO", 0.90, &ok);
    if (ratio_floor < 0) continue;
    char comp_claim[160];
    std::snprintf(comp_claim, sizeof(comp_claim),
                  "compressed sweep >= %.2fx of flat on the steady cell "
                  "(T=%zu, measured %.2fx)",
                  ratio_floor, cell.num_tasks, cell.comp_ratio);
    ok &= shape_check(comp_claim, cell.comp_ratio >= ratio_floor);
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Part 2b — the climb gate (every epoch a >= 2-level jump, every lane
// through the lock-step search).
// ---------------------------------------------------------------------------

/// Climb-heavy stream: same uniform lockstep pool as the steady stream,
/// but the shared target jumps between a low and a high quality BAND
/// every epoch, landing on a pseudo-random level inside the band — every
/// warm lane's hint is >= 2 levels off target, so every epoch pays the
/// full climb/fall binary search instead of the stay/one-step resolve,
/// and the landing level varies so the search's probe outcomes are not a
/// fixed repeating pattern a branch predictor can memorize (a controlled
/// run that needs the search is by definition not in a predictable
/// steady state — the steady gate owns that regime).
EpochStream make_climb_epochs(const PolicyEngine& engine,
                              std::size_t num_tasks, std::size_t num_epochs) {
  EpochStream stream;
  stream.num_tasks = num_tasks;
  stream.num_epochs = num_epochs;
  const int nq = engine.num_levels();
  const auto n = static_cast<std::size_t>(engine.num_states());
  // Low band [1, 1+w), high band [nq-2-w, nq-2): disjoint whenever
  // nq >= 8, so consecutive targets always differ by >= 2 levels.
  const int w = std::max(1, nq / 4);
  const Quality lo_base = std::min(1, nq - 1);
  const Quality hi_base = std::max(nq - 2 - w, 0);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL ^ (num_tasks * 0x2545F4914F6CDD1DULL);
  stream.states.resize(num_epochs * num_tasks);
  stream.times.reserve(num_epochs);
  for (std::size_t e = 0; e < num_epochs; ++e) {
    for (std::size_t task = 0; task < num_tasks; ++task) {
      stream.states[e * num_tasks + task] = static_cast<StateIndex>(e % n);
    }
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto jitter = static_cast<Quality>((x >> 33) % w);
    const Quality target = (e % 2 == 0)
                               ? std::min(lo_base + jitter, nq - 1)
                               : std::min(hi_base + jitter, nq - 1);
    stream.times.push_back(
        engine.td_online(static_cast<StateIndex>(e % n), target));
  }
  return stream;
}

bool run_climb_gate(std::vector<DecisionBenchRecord>& records) {
  std::printf("\n--- climb-search gate (uniform pool, >= 2-level jump every "
              "epoch) ---\n");
  bool ok = true;
  SyntheticSpec spec;
  spec.seed = 20070732;
  spec.num_actions = 64;
  spec.num_levels = 16;
  spec.budget_quality = 8;
  spec.num_cycles = 1;
  const SyntheticWorkload workload(spec);
  const PolicyEngine engine(workload.app(), workload.timing());

  TextTable table({"T", "template ns/epoch", "branchy ns/epoch",
                   "vector ns/epoch", "vs template", "vs branchy", "kernel"});
  struct GateCell {
    std::size_t num_tasks;
    double vs_template;
    double vs_branchy;
    bool simd_active;
    bool identical;
  };
  std::vector<GateCell> cells;
  for (const std::size_t num_tasks : {8u, 32u}) {
    // 512 epochs: long enough that the timing harness's repeated replay
    // cannot train the branch predictor on the scalar search's outcome
    // sequence — a 64-epoch stream fits in predictor history and makes
    // the scalar reference look unrealistically branch-free.
    const EpochStream stream = make_climb_epochs(engine, num_tasks, 512);
    const std::vector<const PolicyEngine*> engines(num_tasks, &engine);

    BatchDecisionEngine branchy(engines, BatchDecisionEngine::Mode::kTabled,
                                ArenaLayout::kFlat,
                                BatchDecisionEngine::Kernel::kScalar);
    // Vector kernels (see the steady gate): the floor measures the
    // lock-step search itself.
    BatchDecisionEngine vec(engines, BatchDecisionEngine::Mode::kTabled,
                            ArenaLayout::kFlat,
                            BatchDecisionEngine::Kernel::kAuto);
    BatchDecisionEngine vec_comp(engines, BatchDecisionEngine::Mode::kTabled,
                                 ArenaLayout::kCompressed,
                                 BatchDecisionEngine::Kernel::kAuto);
    BatchDecisionEngine scal_comp(engines, BatchDecisionEngine::Mode::kTabled,
                                  ArenaLayout::kCompressed,
                                  BatchDecisionEngine::Kernel::kScalar);

    const std::size_t T = stream.num_tasks;
    TemplateKernel tmpl(engine, T);

    // Identity — quality, ops AND feasibility — across the template,
    // scalar/vector and flat/compressed on the stream that forces every
    // lane through the search prologue each epoch. This is the
    // adversarial regime for probe-schedule drift: any vector search that
    // probes even one level in a different order shows up as an ops
    // mismatch here.
    std::vector<Decision> out_a(T), out_b(T), out_c(T), out_d(T);
    bool identical = true;
    std::uint64_t total_ops = 0;
    branchy.reset();
    vec.reset();
    vec_comp.reset();
    scal_comp.reset();
    tmpl.reset();
    for (std::size_t e = 0; e < stream.num_epochs; ++e) {
      const StateIndex* states = stream.states.data() + e * T;
      const std::uint64_t oa = branchy.decide_all(states, stream.times[e],
                                                  out_a.data());
      const std::uint64_t ob = vec.decide_all(states, stream.times[e],
                                              out_b.data());
      const std::uint64_t oc = vec_comp.decide_all(states, stream.times[e],
                                                   out_c.data());
      const std::uint64_t od = scal_comp.decide_all(states, stream.times[e],
                                                    out_d.data());
      const std::uint64_t ot = tmpl.pass(states, stream.times[e]);
      total_ops += oa;
      if (oa != ob || oa != oc || oa != od || oa != ot) identical = false;
      for (std::size_t task = 0; task < T; ++task) {
        const Decision& a = out_a[task];
        const Decision* const others[] = {&out_b[task], &out_c[task],
                                          &out_d[task], &tmpl.out(task)};
        for (const Decision* other : others) {
          if (a.quality != other->quality || a.ops != other->ops ||
              a.feasible != other->feasible) {
            identical = false;
          }
        }
      }
    }

    const auto engine_once = [&](BatchDecisionEngine& eng, Decision* out) {
      eng.reset();
      for (std::size_t e = 0; e < stream.num_epochs; ++e) {
        eng.decide_all(stream.states.data() + e * T, stream.times[e], out);
      }
    };
    const auto template_once = [&] {
      tmpl.reset();
      for (std::size_t e = 0; e < stream.num_epochs; ++e) {
        tmpl.pass(stream.states.data() + e * T, stream.times[e]);
      }
    };
    // Compressed engines are identity-only here; the compressed-vs-flat
    // throughput gate lives on the steady cell where the decode is the
    // dominant term.
    const std::vector<double> wall = interleaved_min_ns(
        {template_once, [&] { engine_once(branchy, out_a.data()); },
         [&] { engine_once(vec, out_b.data()); }},
        /*calibrate_on=*/0, /*min_calibrate_ns=*/3e6, /*rounds=*/10);
    const double tmpl_ns = wall[0];
    const double branchy_ns = wall[1];
    const double vec_ns = wall[2];
    const auto epochs = static_cast<double>(stream.num_epochs);
    const double vs_template = tmpl_ns / vec_ns;
    const double vs_branchy = branchy_ns / vec_ns;
    table.begin_row()
        .cell(num_tasks)
        .cell(tmpl_ns / epochs, 1)
        .cell(branchy_ns / epochs, 1)
        .cell(vec_ns / epochs, 1)
        .cell(vs_template, 2)
        .cell(vs_branchy, 2)
        .cell(vec.simd_active() ? "vector" : "scalar-fallback");
    table.end_row();
    cells.push_back({num_tasks, vs_template, vs_branchy, vec.simd_active(),
                     identical});

    const double ops_per_decision =
        static_cast<double>(total_ops) /
        (epochs * static_cast<double>(T));
    DecisionBenchRecord rec;
    rec.policy = "uniform-climb";
    rec.n = num_tasks;
    rec.num_levels = engine.num_levels();
    rec.engine = "batched-climb";
    rec.ns_per_decision = vec_ns / epochs;
    rec.ops_per_decision = ops_per_decision;
    records.push_back(rec);
    rec.engine = "batched-climb-scalar";
    rec.ns_per_decision = branchy_ns / epochs;
    rec.ops_per_decision = ops_per_decision;
    records.push_back(rec);
  }
  std::printf("%s", table.render().c_str());
  std::printf("(every epoch jumps the shared target by >= 2 levels, so "
              "every lane runs the full binary search; the vector column "
              "is the lock-step masked search over lane groups)\n\n");

  for (const GateCell& cell : cells) {
    ok &= shape_check(
        "template/branchy/vector flat/compressed bit-identical (ops "
        "included) on climb stream (T=" +
            std::to_string(cell.num_tasks) + ")",
        cell.identical);
    if (!cell.simd_active) {
      std::printf("[SHAPE-SKIP] climb >= 2x gate (T=%zu): no vector kernel "
                  "in this build/on this CPU (SPEEDQM_SIMD=OFF or "
                  "unsupported ISA)\n", cell.num_tasks);
      continue;
    }
    // Machine-relative, SHAPE-gated, never baselined — same policy as
    // the steady-cell SIMD floor.
    const double floor = env_floor("SPEEDQM_CLIMB_MIN_SPEEDUP", 2.0, &ok);
    if (floor < 0) continue;
    char claim[160];
    std::snprintf(claim, sizeof(claim),
                  "vector climb search >= %.2fx the one-lane scalar "
                  "template per composite decision (T=%zu, measured %.2fx)",
                  floor, cell.num_tasks, cell.vs_template);
    ok &= shape_check(claim, cell.vs_template >= floor);
    char sanity[160];
    std::snprintf(sanity, sizeof(sanity),
                  "vector climb search not a pessimization vs the branchy "
                  "scalar kernel (T=%zu, measured %.2fx >= 0.90x)",
                  cell.num_tasks, cell.vs_branchy);
    ok &= shape_check(sanity, cell.vs_branchy >= 0.90);
  }
  return ok;
}

/// 10^6-cycle streaming replay of a small composed mix: per-step records
/// never materialize; the summary folds online.
bool run_streaming_replay(std::vector<DecisionBenchRecord>& records) {
  MultiTaskMixSpec spec;
  spec.num_tasks = 2;
  spec.seed = 977;
  spec.include_mpeg = false;
  spec.min_task_actions = 6;
  spec.max_task_actions = 10;
  spec.num_cycles = 8;
  MultiTaskMix mix(spec);
  const auto engines = mix.engines();
  BatchMultiTaskManager manager(mix.composed(), engines);

  const std::size_t cycles = 1'000'000;
  // RunSummaryAccumulator plus an online decision-ops fold (sinks compose).
  struct OpsSink final : StepSink {
    explicit OpsSink(std::string name) : acc(std::move(name)) {}
    RunSummaryAccumulator acc;
    std::uint64_t total_ops = 0;
    void on_step(const ExecStep& step) override {
      acc.on_step(step);
      total_ops += step.ops;
    }
    void on_cycle(const CycleStats& cycle) override { acc.on_cycle(cycle); }
  } sink(manager.name());
  ExecutorOptions opts = mix.executor_options(cycles);
  opts.retain_steps = false;
  opts.retain_cycles = false;
  opts.sink = &sink;

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const RunResult run =
      run_cyclic(mix.composed().app(), manager, mix.source(), opts);
  double elapsed_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)
          .count());
  const RunSummary summary = sink.acc.finish();
  // Noise-robust timing: the replay is deterministic, so re-run it (sink
  // detached) and keep the minimum — a single multi-second measurement is
  // otherwise at the mercy of one scheduler hiccup on a shared runner.
  for (int repeat = 0; repeat < 2; ++repeat) {
    ExecutorOptions timing_opts = opts;
    timing_opts.sink = nullptr;
    const auto r0 = clock::now();
    run_cyclic(mix.composed().app(), manager, mix.source(), timing_opts);
    elapsed_ns = std::min(
        elapsed_ns,
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                clock::now() - r0)
                                .count()));
  }

  const double ns_per_step =
      elapsed_ns / static_cast<double>(summary.total_steps);
  std::printf("\nstreaming replay: %zu cycles x %zu actions = %zu steps in "
              "%.2f s (%.0f ns/step, %.1f M steps/s)\n",
              cycles, mix.composed().app().size(), summary.total_steps,
              elapsed_ns * 1e-9, ns_per_step, 1e3 / ns_per_step);
  std::printf("  mean quality %.3f | overhead %.2f%% | misses %zu | "
              "retained steps %zu, retained cycles %zu\n",
              summary.mean_quality, summary.overhead_pct,
              summary.deadline_misses, run.steps.size(), run.cycles.size());

  DecisionBenchRecord rec;
  rec.policy = "mixed";
  rec.engine = "stream-replay";
  rec.n = spec.num_tasks;
  rec.num_levels = engines.front()->num_levels();
  rec.ns_per_decision = ns_per_step;
  // Deterministic: decision ops amortized over every executed step.
  rec.ops_per_decision = static_cast<double>(sink.total_ops) /
                         static_cast<double>(summary.total_steps);
  records.push_back(rec);

  bool ok = true;
  ok &= shape_check("streaming replay retained no per-step records",
                    run.steps.empty() && run.cycles.empty());
  ok &= shape_check("streaming replay executed 10^6 cycles",
                    summary.total_steps ==
                        cycles * mix.composed().app().size());
  ok &= shape_check("streaming summary folded online (nonzero quality, time)",
                    summary.mean_quality > 0 && summary.total_time_s > 0);
  return ok;
}

}  // namespace

int main() {
  std::printf("=== B1 — batched multi-task decisions + streaming replay ===\n");
  std::printf("mix: scaled MPEG + synthetic tasks, shared budget, "
              "server-like platform\n\n");

  std::vector<DecisionBenchRecord> records;
  TextTable table({"T", "engine", "ns/composite-decision", "ops/decision",
                   "speedup"});
  bool ok = true;
  std::vector<std::pair<std::size_t, CellResult>> cells;
  for (const std::size_t num_tasks : {2u, 8u, 32u}) {
    const CellResult cell = run_cell(num_tasks, 20070730 + num_tasks, records);
    cells.emplace_back(num_tasks, cell);
    const auto row = [&](const char* engine, double ns, double ops) {
      table.begin_row()
          .cell(num_tasks)
          .cell(engine)
          .cell(ns, 1)
          .cell(ops, 2)
          .cell(ns > 0 ? cell.incremental_ns_per_epoch / ns : 0.0, 2);
      table.end_row();
    };
    row("batched", cell.batched_ns_per_epoch, cell.batched_ops_per_decision);
    row("batched-compressed", cell.compressed_ns_per_epoch,
        cell.batched_ops_per_decision);
    row("sequential-tabled", cell.tabled_ns_per_epoch,
        cell.tabled_ops_per_decision);
    row("sequential", cell.incremental_ns_per_epoch,
        cell.incremental_ops_per_decision);
    std::printf("T=%zu arena bytes: flat %zu, compressed %zu (%.2fx)\n",
                num_tasks, cell.batched_table_bytes,
                cell.compressed_table_bytes,
                static_cast<double>(cell.batched_table_bytes) /
                    static_cast<double>(cell.compressed_table_bytes));
    ok &= shape_check(
        "decisions bit-identical across scalar/simd/flat/compressed and "
        "both sequential baselines (T=" +
            std::to_string(num_tasks) + ")",
        cell.identical);
    ok &= shape_check(
        "batched ops/decision == sequential-tabled ops/decision (T=" +
            std::to_string(num_tasks) + ")",
        cell.batched_ops_per_decision == cell.tabled_ops_per_decision);
  }
  std::printf("%s\n", table.render().c_str());

  // Perf gates at T >= 8: >= 4x per composite decision against the
  // pre-batch serving path (per-task incremental managers — the no-table
  // engine the repo recommended for run-time task sets), and strict
  // dominance (>= 1.2x, typically 2-2.5x) against per-task tabled virtual
  // calls — same probes, so that row isolates the dispatch/SoA win; the
  // looser floor leaves headroom for shared-runner noise on tens-of-ns
  // measurements. Per-task ops must stay flat in T — batching removes
  // dispatch, not probes.
  for (const auto& [num_tasks, cell] : cells) {
    if (num_tasks < 8) continue;
    ok &= shape_check(
        "batched >= 4x faster per composite decision than sequential (T=" +
            std::to_string(num_tasks) + ")",
        cell.batched_ns_per_epoch * 4.0 <= cell.incremental_ns_per_epoch);
    ok &= shape_check(
        "batched >= 1.2x faster than sequential-tabled (T=" +
            std::to_string(num_tasks) + ")",
        cell.batched_ns_per_epoch * 1.2 <= cell.tabled_ns_per_epoch);
  }
  ok &= shape_check(
      "batched ops/decision flat in T (T=32 within 1.4x of T=2)",
      cells.back().second.batched_ops_per_decision <=
          cells.front().second.batched_ops_per_decision * 1.4);

  ok &= run_simd_gate();

  ok &= run_climb_gate(records);

  ok &= run_streaming_replay(records);

  write_decision_bench_json("BENCH_multitask.json", "multitask_batch", records);
  std::printf("\nwrote BENCH_multitask.json (%zu records)\n", records.size());
  return ok ? 0 : 1;
}

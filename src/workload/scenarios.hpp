// Canned experiment scenarios, most importantly the paper's exact
// evaluation configuration (section 4.1): MPEG encoder, 1,189 actions,
// 7 quality levels, 29 frames of 396 macroblocks, a single global deadline
// D = 30 s, rho = {1, 10, 20, 30, 40, 50}, on an iPod-like platform.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/multi_task.hpp"
#include "core/policy.hpp"
#include "sim/overhead_inflation.hpp"
#include "sim/overhead_model.hpp"
#include "sim/perturb.hpp"
#include "workload/mpeg_model.hpp"
#include "workload/synthetic.hpp"

namespace speedqm {

/// Which Quality Manager implementation a controller model targets.
enum class ManagerFlavor {
  kNumeric,             ///< paper's numeric manager (downward scan)
  kNumericIncremental,  ///< numeric manager over incremental tD maintenance
  kRegions,
  kRelaxation,
  kBatch,               ///< batched multi-task engine (core/batch_engine.hpp)
};

const char* to_string(ManagerFlavor flavor);

/// The paper's evaluation setup, bundled.
struct PaperScenario {
  MpegConfig config;
  TimeNs total_deadline = 0;   ///< the paper's D = 30 s
  TimeNs frame_period = 0;     ///< D / num_frames (milestone spacing)
  std::vector<int> rho;        ///< relaxation step set
  OverheadModel overhead;      ///< iPod-like calibration
  std::unique_ptr<MpegWorkload> workload;

  const ScheduledApp& app() const { return workload->app(); }
  const TimingModel& timing() const { return workload->timing(); }
  TraceTimeSource& traces() { return workload->traces(); }

  /// The timing model a deployed controller of the given flavor should
  /// decide with: the workload's model inflated by that manager's own
  /// estimated call cost on this platform (the paper's §2.2.2 remark about
  /// overestimating execution times to cover quality-management overhead).
  TimingModel controller_model(ManagerFlavor flavor) const;
};

/// Builds the scenario. `seed` varies content; the default reproduces the
/// repository's reference outputs.
PaperScenario make_paper_scenario(std::uint64_t seed = 20070326);

// ---------------------------------------------------------------------------
// Heterogeneous multi-task mixes: T concurrent applications (optionally a
// scaled-down MPEG encoder plus synthetic tasks of varied size, cost and
// quality curve) sharing one cycle budget under a batched or sequential
// multi-task manager — the serving workload for bench_multi_task and the
// batched-vs-sequential differential tests. T ∈ {2, 8, 32} are the
// benched points; any T >= 1 works.
// ---------------------------------------------------------------------------

struct MultiTaskMixSpec {
  std::size_t num_tasks = 8;
  std::uint64_t seed = 20070730;
  bool include_mpeg = true;     ///< task 0 is a scaled-down MPEG encoder
  int num_levels = 7;           ///< shared quality axis (all tasks)
  std::size_t num_cycles = 16;  ///< cycles of trace content per task
  /// Synthetic task sizes are drawn from [min_task_actions, max_task_actions].
  ActionIndex min_task_actions = 8;
  ActionIndex max_task_actions = 48;
  /// Shared budget = budget_factor * sum over tasks of total Cav at
  /// budget_quality; every task's last action is due by it.
  Quality budget_quality = 4;
  double budget_factor = 1.10;
  /// Inflate each task's controller model for the batch manager's own call
  /// cost (the paper's §2.2.2 margin), on the server-like platform.
  bool inflate_overhead = true;
  /// Add the coexistence margin to each task's controller model: under the
  /// proportional interleave, between two of a task's actions the other
  /// tasks execute ~one round of theirs, so each action's Cav/Cwc is
  /// raised by the others' per-round average cost at the same quality
  /// (§2.2.2 overestimation applied to co-scheduling). Without it every
  /// task budgets as if it owned the whole cycle and the mix overcommits.
  bool coexistence_margin = true;
};

/// The raw per-task materials of a serving mix, built once from a spec and
/// shareable between assemblies (a full MultiTaskMix, the per-shard mixes
/// of serve/ShardedServer, and admission-control what-if evaluations all
/// draw from one pool). Construction is deterministic in the spec alone:
/// task `i` of two pools built from equal specs is identical, regardless
/// of which subsets are later assembled.
///
/// Thread-safety: everything here is immutable after construction, the
/// per-task traces included: they are read-only while serving (composed
/// sources keep their own cycle cursor and never move a trace's), so any
/// number of shards and assemblies may read one pool concurrently.
class TaskPool {
 public:
  /// Throws contract_error, in every build, when spec.num_tasks is 0,
  /// spec.budget_factor is not a finite number > 0, spec.num_levels < 2,
  /// the task-size range is not 2 <= min <= max, spec.budget_quality < 0,
  /// or the pool's Σ Cav at qmax reaches 2^53 ns (the bound that keeps
  /// the member controllers' double margin sums exact).
  explicit TaskPool(const MultiTaskMixSpec& spec);

  const MultiTaskMixSpec& spec() const { return spec_; }
  std::size_t size() const { return names_.size(); }
  const std::string& name(std::size_t task) const { return names_.at(task); }
  /// The task's raw schedule (original per-task deadlines, pre-budget).
  const ScheduledApp& raw_app(std::size_t task) const {
    return *apps_.at(task);
  }
  /// The task's raw timing model (uninflated).
  const TimingModel& raw_timing(std::size_t task) const {
    return *timings_.at(task);
  }
  const TraceTimeSource& trace(std::size_t task) const {
    return *traces_.at(task);
  }

  /// The shared cycle budget of a member subset: budget_factor times the
  /// members' total Cav at budget_quality — exactly the arithmetic
  /// MultiTaskMix(spec) uses for the full pool, so an all-members call
  /// reproduces its budget bit for bit.
  TimeNs budget_for(const std::vector<std::size_t>& members) const;

 private:
  MultiTaskMixSpec spec_;
  std::unique_ptr<MpegWorkload> mpeg_;
  std::vector<std::unique_ptr<SyntheticWorkload>> synth_;
  std::vector<const ScheduledApp*> apps_;
  std::vector<const TimingModel*> timings_;
  std::vector<const TraceTimeSource*> traces_;
  std::vector<std::string> names_;
};

/// The controller-side view of one member subset of a pool: budget-bearing
/// apps (every member due by the shared budget), controller timing models
/// (the raw model plus the coexistence margin over the members and the
/// §2.2.2 overhead margin, applied in one pass) and per-task policy
/// engines — building it does NOT compose the schedules or read the
/// traces. O(|members| · |Q| + Σ n_k · |Q|): the mix's Σ Cav(q) is summed
/// once, not once per member. serve/AdmissionController's closed form
/// relies on its shape (one shared deadline per member, margins added to
/// Cav and Cwc alike per action); tests/test_admission.cpp checks the two
/// agree.
struct MemberControllers {
  std::vector<std::size_t> members;                  ///< pool task ids
  std::vector<std::unique_ptr<ScheduledApp>> apps;   ///< budget-bearing
  std::vector<std::unique_ptr<TimingModel>> models;  ///< controller models
  std::vector<std::unique_ptr<PolicyEngine>> engines;

  std::vector<const PolicyEngine*> engine_ptrs() const;
};

/// Builds the member controllers for `members` (pool task ids, in the
/// order they will compose) against a fixed shared `budget`.
MemberControllers build_member_controllers(const TaskPool& pool,
                                           const std::vector<std::size_t>& members,
                                           TimeNs budget,
                                           const OverheadModel& overhead);

/// Owning bundle: per-task workloads, budget-bearing apps, per-task policy
/// engines (over §2.2.2-inflated controller models), the proportional
/// interleave composition, and a cyclic composed trace source.
class MultiTaskMix {
 public:
  explicit MultiTaskMix(const MultiTaskMixSpec& spec);

  /// Assembles a mix over a member subset of a shared pool. `budget`
  /// fixes the shared cycle budget (a shard's capacity); 0 means "compute
  /// from the members" (the single-mix default). With all members and
  /// budget 0 this is bit-identical to MultiTaskMix(pool->spec()).
  MultiTaskMix(std::shared_ptr<TaskPool> pool, std::vector<std::size_t> members,
               TimeNs budget = 0);

  const MultiTaskMixSpec& spec() const { return pool_->spec(); }
  const TaskPool& pool() const { return *pool_; }
  /// Pool task ids of the members, in composition order.
  const std::vector<std::size_t>& members() const { return controllers_.members; }
  std::size_t num_tasks() const { return controllers_.engines.size(); }
  const ComposedSystem& composed() const { return *composed_; }
  ComposedCyclicSource& source() { return *source_; }
  TimeNs budget() const { return budget_; }
  const OverheadModel& overhead() const { return overhead_; }

  /// Borrowed per-task engines for BatchMultiTaskManager /
  /// SequentialMultiTaskManager (valid for the mix's lifetime).
  std::vector<const PolicyEngine*> engines() const;

  /// Executor options preset: period = shared budget, server-like platform.
  ExecutorOptions executor_options(std::size_t cycles) const;

 private:
  std::shared_ptr<TaskPool> pool_;
  OverheadModel overhead_;
  MemberControllers controllers_;
  std::unique_ptr<ComposedSystem> composed_;
  std::unique_ptr<ComposedCyclicSource> source_;
  TimeNs budget_ = 0;
};

// ---------------------------------------------------------------------------
// Perturbation catalogue: named, seeded fault scripts (sim/perturb.hpp)
// sized to a serving horizon. Same name + cycles + seed => the same
// scenario, and the perturbation engine guarantees the same scenario +
// seed => identical run artifacts — so a catalogue name is a complete,
// reproducible description of a stress experiment (the CLI's --perturb).
// ---------------------------------------------------------------------------

/// Valid catalogue names, in presentation order: "calm" (empty script),
/// "spike" (the canonical load-spike pair the degradation gate uses),
/// "jitter", "stall", "overhead-storm", "flaky-shard", "disconnect",
/// "storm" (everything at once).
const std::vector<std::string>& perturbation_scenario_names();

/// Builds the named scenario scaled to a `cycles`-long horizon. Throws
/// contract_error (listing the valid names) for an unknown name; requires
/// cycles >= 8 so the windows have room.
PerturbationScenario make_perturbation_scenario(const std::string& name,
                                                std::size_t cycles,
                                                std::uint64_t seed = 20070615);

/// Paper constants, exposed for tests/benches.
inline constexpr int kPaperActions = 1189;
inline constexpr int kPaperLevels = 7;
inline constexpr int kPaperFrames = 29;
inline constexpr int kPaperMacroblocks = 396;
inline constexpr int kPaperRegionIntegers = 8323;        // |A| * |Q|
inline constexpr int kPaperRelaxationIntegers = 99876;   // 2 |A| |Q| |rho|

}  // namespace speedqm

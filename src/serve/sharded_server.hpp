// Sharded multi-clock serving: S independent shards, each with its own
// platform clock, batched decision engine and streaming executor, driven
// by a worker pool, fed by admission control.
//
// Scale-out shape (the II-CC-FF "shard -> combine" paradigm): the task
// pool is partitioned across shards; each shard composes ITS members into
// one interleaved schedule, decides them inline on the action thread with
// one BatchMultiTaskManager, executes cycles against its own platform
// clock, and folds its steps through a private RunSummaryAccumulator.
// Shards share nothing mutable: a task belongs to at most one shard, and
// the pool's traces are read-only while serving (each shard's composed
// source keeps its own cycle cursor), so S shards on W worker threads run
// with zero cross-shard synchronization between segment barriers. Per-shard results are combined into one
// bit-deterministic ServingSummary at the end (serve/serving_summary.hpp).
//
// Dynamics: an ArrivalSchedule (workload/arrivals.hpp) splits the serving
// horizon into segments. Between segments — on the control thread, never
// concurrently with shard execution — leaves are applied and join requests
// are evaluated by the AdmissionController (best-fit across shards,
// feasibility via the coexistence-margin model). Affected shards rebuild
// their composition and resume from their own clock via the executor's
// start_cycle/start_time hand-off. Because admission runs only at these
// barriers and reads only pool + membership state, its decisions are
// identical for ANY worker count — 1 worker and N workers produce the
// same AdmissionDecision log bit for bit (bench- and test-gated).
//
// Degenerate case: S = 1 with no arrivals runs the whole pool through one
// shard — bit-identical to BatchMultiTaskManager over MultiTaskMix, the
// differential the tests pin.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include <stdexcept>
#include <string>

#include "core/batch_engine.hpp"
#include "serve/admission.hpp"
#include "serve/frontend.hpp"
#include "serve/serving_summary.hpp"
#include "sim/metrics.hpp"
#include "sim/perturb.hpp"
#include "sim/realtime.hpp"
#include "workload/arrivals.hpp"
#include "workload/scenarios.hpp"

namespace speedqm {

/// Structured serving failure: any exception escaping a shard's segment on
/// a worker thread is captured and rethrown on the control thread as a
/// ServeError carrying the failing shard and segment start, instead of
/// taking the process down via std::terminate.
class ServeError : public std::runtime_error {
 public:
  ServeError(std::size_t shard, std::size_t start_cycle,
             const std::string& what)
      : std::runtime_error("shard " + std::to_string(shard) +
                           " failed in segment starting at cycle " +
                           std::to_string(start_cycle) + ": " + what),
        shard_(shard),
        start_cycle_(start_cycle) {}

  std::size_t shard() const { return shard_; }
  std::size_t start_cycle() const { return start_cycle_; }

 private:
  std::size_t shard_;
  std::size_t start_cycle_;
};

struct ShardedServerSpec {
  /// Defines the task pool (num_tasks, seeds, margins, budget factor).
  MultiTaskMixSpec mix;
  std::size_t num_shards = 4;
  /// Worker threads driving shard segments. 0 = one per shard. Affects
  /// wall-clock only, never results (gated).
  std::size_t num_workers = 0;
  /// Serving horizon: cycles each shard executes.
  std::size_t cycles = 64;
  BatchDecisionEngine::Mode mode = BatchDecisionEngine::Mode::kTabled;
  /// Arena layout of every shard's engine (tabled mode): kCompressed
  /// serves the same decisions from the delta-coded tables — bit-identical
  /// results, ~2.2-2.4x less table memory per shard.
  ArenaLayout layout = ArenaLayout::kFlat;
  /// Sweep kernel of every shard's engine (tabled mode): kAuto runs the
  /// widest vector kernel the CPU offers, kScalar the scalar sweep.
  /// Decisions are bit-identical across kernels (gated); this only moves
  /// wall-clock.
  BatchDecisionEngine::Kernel kernel = BatchDecisionEngine::Kernel::kAuto;
  /// Placement policy for join requests: best-fit packs, most-slack
  /// balances (the serving-throughput choice — see serve/admission.hpp).
  PlacementPolicy placement = PlacementPolicy::kBestFit;
  /// Pool tasks 0..initial_tasks-1 are submitted at cycle 0 (through
  /// admission, in pool order). Defaults to the whole pool.
  std::size_t initial_tasks = static_cast<std::size_t>(-1);
  /// Seeded fault script (sim/perturb.hpp). Executor-level faults (load
  /// spikes, stalled frames, clock jitter, overhead spikes) wrap each
  /// shard's source/platform/manager in the perturbation decorators,
  /// salted by shard index; kShardStall windows delay the targeted
  /// shard's worker segments in HOST time only (the segment barrier still
  /// holds, deterministic results are unaffected); kDisconnect windows
  /// are merged into the arrival schedule as forced leave/rejoin pairs.
  /// The default (empty) scenario leaves every path bit-identical to the
  /// unperturbed server — no decorator is even installed.
  PerturbationScenario perturb;
  /// Executor clock backend (sim/realtime.hpp). kSim is the historical
  /// simulated path; kVirtual/kWall pace every shard against its own
  /// backend clock, at which point kShardStall windows cost budget and
  /// the watchdog/governor supervision below is live. kVirtual stays
  /// fully deterministic (bit-identical to kSim with an empty scenario).
  ClockMode clock = ClockMode::kSim;
  /// Wall ns charged per simulated ns when clock != kSim (1.0 = true real
  /// time; small values time-compress bounded-seconds soaks).
  double wall_per_sim = 1.0;
  WatchdogConfig watchdog;
  /// Overload governor: degrades quality and sheds tasks (re-admitting
  /// them through the AdmissionController once caught up). Acted on every
  /// governor.check_cycles cycles at segment boundaries.
  GovernorConfig governor;
  /// Optional observer tee'd behind every shard's accumulator (steps and
  /// cycles of all shards; must be thread-safe when num_workers > 1;
  /// want_stop is ignored — segments always run to their boundary).
  StepSink* tap = nullptr;
  /// Optional ingest front-end (serve/frontend.hpp; borrowed, not owned).
  /// The server drains its MPSC ring on the control thread at serving
  /// start and at every segment barrier; matured join/leave requests are
  /// applied in deterministic (cycle, order) order through the same
  /// admission path as ArrivalSchedule events (schedule events first, then
  /// front-end requests, at the same barrier). Pending request cycles
  /// create segment boundaries of their own, so a front-end-fed run is
  /// bit-identical to the same events pre-drained into an ArrivalSchedule
  /// for any producer count (differential-gated).
  ServeFrontend* frontend = nullptr;
};

class ShardedServer {
 public:
  /// Throws contract_error, in every build, when spec.num_shards,
  /// spec.cycles or spec.mix.num_tasks is 0, or spec.mix.budget_factor is
  /// not a finite number > 0.
  explicit ShardedServer(const ShardedServerSpec& spec,
                         ArrivalSchedule schedule = {});
  ~ShardedServer();

  /// Per-shard cycle capacity: the full pool's shared budget divided by S
  /// (so S = 1 reproduces the single-mix budget exactly).
  TimeNs shard_budget() const { return shard_budget_; }
  std::size_t num_shards() const { return shards_.size(); }
  const TaskPool& pool() const { return *pool_; }

  /// Runs the serving horizon: initial placement, segment execution across
  /// the worker pool, arrival/leave processing at segment boundaries, and
  /// the final fold. One-shot: a server instance serves once.
  ServingSummary serve();

 private:
  struct Shard {
    std::size_t index = 0;
    std::unique_ptr<MultiTaskMix> mix;              // null while empty
    std::unique_ptr<BatchMultiTaskManager> manager;
    std::unique_ptr<RunSummaryAccumulator> acc;
    // Perturbation decorators (null when the scenario is empty — the
    // unperturbed code path does not change at all). The cursor is salted
    // with the shard index and survives rebuilds; the wrappers borrow the
    // current mix/manager and are rebuilt with them.
    std::unique_ptr<PerturbationCursor> cursor;
    std::unique_ptr<PerturbedTimeSource> psource;
    std::unique_ptr<PerturbedPlatform> pplatform;
    std::unique_ptr<PerturbedManager> pmanager;
    // Real-time backend (clock != kSim): the shard's own backend clock and
    // pacer persist across rebuilds — lag, watchdog and governor state
    // survive membership changes, like the perturbation cursor. The
    // governed wrapper borrows the current decision path and is rebuilt
    // with it.
    std::unique_ptr<WallClock> wall;
    std::unique_ptr<WallClockPacer> pacer;
    std::unique_ptr<GovernedManager> governed;
    std::size_t stall_cycles = 0;  ///< shard-stall cycles slept (wall only)
    TimeNs clock = 0;
    std::size_t epochs = 0;    ///< accumulated across rebuilds
    std::size_t rebuilds = 0;
    bool dirty = false;        ///< membership changed; rebuild before running
  };

  void place_initial_tasks();
  /// Asks admission control to place `task` at `cycle`; an admitted task
  /// joins the chosen shard (marked for rebuild). Every decision is
  /// logged in admissions_. Returns whether the task was admitted.
  bool join(std::size_t task, std::size_t cycle);
  /// Removes `task` from the shard holding it (marked for rebuild);
  /// returns false when no shard holds it.
  bool leave(std::size_t task);
  /// Whether some shard holds `task`.
  bool resident(std::size_t task) const;
  void apply_events(std::size_t cycle);
  /// Applies the front-end requests matured at `cycle` (no-op without a
  /// front-end): leaves erase the member, joins go through admission.
  /// Join-of-present / leave-of-absent requests are dropped with a count,
  /// mirroring merge_forced_events' tolerance for racy scripts.
  void apply_frontend(std::size_t cycle);
  /// Acts on governor verdicts at a segment boundary: sheds members of
  /// shards whose governor requested it (parking them) and re-admits
  /// parked tasks through the AdmissionController once their origin
  /// shard's governor is back to Normal.
  void apply_governor(std::size_t cycle);
  /// Creates the shard's backend clock + pacer (clock != kSim), once.
  void ensure_realtime(Shard& shard);
  void rebuild_shard(Shard& shard);
  /// Runs [start_cycle, start_cycle + cycles) on every non-empty shard
  /// using the worker pool; rethrows the first worker exception.
  void run_segment(std::size_t start_cycle, std::size_t cycles);
  void run_shard_segment(Shard& shard, std::size_t start_cycle,
                         std::size_t cycles);

  ShardedServerSpec spec_;
  ArrivalSchedule schedule_;
  std::shared_ptr<TaskPool> pool_;
  TimeNs shard_budget_ = 0;
  std::unique_ptr<AdmissionController> admission_;
  std::vector<Shard> shards_;
  /// members_[s]: pool task ids on shard s, in composition order — kept
  /// apart from Shard so every join hands them to admission by reference.
  std::vector<std::vector<std::size_t>> members_;
  std::vector<AdmissionDecision> admissions_;
  std::size_t leaves_ = 0;
  std::size_t scripted_disconnects_ = 0;
  /// Tasks the governor shed, waiting for re-admission.
  struct Parked {
    std::size_t task = 0;
    std::size_t origin = 0;  ///< shard whose governor shed it
  };
  std::vector<Parked> parked_;
  std::size_t shed_tasks_ = 0;
  std::size_t readmitted_tasks_ = 0;
  std::uint64_t frontend_applied_ = 0;
  std::uint64_t frontend_dropped_ = 0;
  bool served_ = false;
};

}  // namespace speedqm

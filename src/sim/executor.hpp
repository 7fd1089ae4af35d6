// Cyclic platform executor: runs the controlled software PS‖Γ for many
// cycles (frames) on a simulated platform, charging Quality Manager
// overhead to the platform clock.
//
// Execution model per action:
//   1. If no relaxation window is active, the manager observes the current
//      cycle-relative time and decides; its computation cost (overhead
//      model applied to the reported op count) is then charged to the
//      clock *after* the observation — the decision cannot see its own
//      cost, which is exactly why heavy managers lose budget (figure 7).
//   2. The action executes for its actual workload time (platform-scaled).
//
// Cycle chaining ("single global deadline" semantics, section 4.1): with
// slack carry-over enabled (default), cycle c is controlled against the
// absolute milestone (c+1) * period by observing t_abs - c * period, which
// may be negative when the run is ahead of schedule — unused budget flows
// into the next cycle, like the paper's single D = 30 s over 29 frames.
// With carry-over disabled, every cycle starts its clock at zero and slack
// is discarded.
#pragma once

#include <cstdint>
#include <vector>

#include "core/application.hpp"
#include "core/controller.hpp"
#include "core/manager.hpp"
#include "sim/platform.hpp"

namespace speedqm {

/// Per-cycle hook for trace sources that store one actual-time table per
/// cycle (e.g. per-frame content).
class CyclicTimeSource : public ActualTimeSource {
 public:
  /// Selects which cycle subsequent actual_time() calls refer to.
  virtual void set_cycle(std::size_t cycle) = 0;
  /// Number of cycles of content available.
  virtual std::size_t num_cycles() const = 0;
};

struct ExecStep;
struct CycleStats;

/// Hook that paces the executor against a backend clock (sim/realtime.hpp's
/// WallClockPacer is the real-time implementation). The executor charges
/// every platform-time expenditure (manager overhead, action durations)
/// through charge(); the pacer converts it into wall time, sleeps the host
/// thread to stay on schedule, and reports how far behind schedule the run
/// has fallen via lag() — in *simulated* nanoseconds, so the executor can
/// add it to observations and deadline checks. A null pacer (the default)
/// leaves the executor bit-identical to the historical simulated path.
class ExecutionPacer {
 public:
  virtual ~ExecutionPacer() = default;
  /// Current behind-schedule amount in simulated ns (0 = on schedule or
  /// ahead). Added to every manager observation and deadline comparison.
  virtual TimeNs lag() const = 0;
  /// Charges `sim_ns` of simulated platform time to the backend clock,
  /// pacing the host thread.
  virtual void charge(TimeNs sim_ns) = 0;
  /// Called once per cycle before its first step runs; `cycle` is the
  /// absolute cycle index. Injection point for scripted host-time faults.
  virtual void prepare_cycle(std::size_t cycle) = 0;
  /// Step boundary: heartbeat + watchdog verdicts stamped into the step
  /// (lag / overrun / degraded fields).
  virtual void finish_step(ExecStep& step) = 0;
  /// Cycle boundary (complete cycles only): stamps end_lag / degraded and
  /// advances the supervision state machine.
  virtual void finish_cycle(CycleStats& cycle) = 0;
};

/// Streaming observer for run_cyclic: receives every executed step and
/// every cycle aggregate online, so trace-driven replay can fold metrics
/// in O(1) memory per step instead of materializing per-step records
/// (see ExecutorOptions::retain_steps and sim/metrics.hpp's
/// RunSummaryAccumulator).
class StepSink {
 public:
  virtual ~StepSink() = default;
  /// Called once per executed action, in execution order.
  virtual void on_step(const ExecStep& step) = 0;
  /// Called at the end of every cycle with its aggregate.
  virtual void on_cycle(const CycleStats& cycle) { (void)cycle; }
  /// Polled after every on_step: return true to terminate the run early
  /// (after the step just delivered). The in-progress cycle emits no
  /// CycleStats — it did not complete — but every scalar aggregate of the
  /// RunResult stays consistent with the steps actually executed.
  virtual bool want_stop() const { return false; }
};

struct ExecutorOptions {
  Platform platform{};
  std::size_t cycles = 1;
  /// Cycle period: the milestone spacing. 0 means "use the application's
  /// final deadline" (each cycle budgeted exactly its deadline).
  TimeNs period = 0;
  bool carry_slack = true;
  /// Streaming mode: with retain_steps / retain_cycles false the
  /// corresponding RunResult vectors stay empty — memory drops from
  /// O(cycles * n) to O(1) per step — while the scalar aggregates
  /// (totals, quality_sum) are still maintained. Pair with `sink` to fold
  /// anything per-step (million-cycle replays).
  bool retain_steps = true;
  bool retain_cycles = true;
  /// Optional streaming observer; called for every step and cycle
  /// regardless of the retain flags.
  StepSink* sink = nullptr;
  /// Resume hand-off (sharded serving runs one membership segment at a
  /// time): the absolute index of the first cycle to execute and the
  /// platform clock at its start. Cycle ids, milestone origins
  /// (start_cycle * period under slack carry-over) and trace content
  /// selection all use the absolute index, so a run split into segments
  /// replays bit-identically to one unsplit run over the same manager
  /// state. Defaults reproduce the historical from-zero behavior.
  std::size_t start_cycle = 0;
  TimeNs start_time = 0;
  /// Optional real-time pacing hook (see ExecutionPacer). Null keeps the
  /// executor on the pure simulated clock, bit-identical to before.
  ExecutionPacer* pacer = nullptr;
};

/// One executed action on the platform (extends the pure StepRecord with
/// the overhead charged before it).
struct ExecStep {
  std::size_t cycle = 0;
  ActionIndex action = 0;
  Quality quality = 0;
  TimeNs observed = 0;   ///< cycle-relative time the manager saw (if called)
  TimeNs overhead = 0;   ///< manager cost charged before the action (0 if not called)
  TimeNs start = 0;      ///< absolute platform time when the action began
  TimeNs duration = 0;   ///< platform-scaled actual execution time
  bool manager_called = false;
  bool feasible = true;
  int relax_steps = 1;
  std::uint64_t ops = 0;
  // Real-time fields (all zero/false on the simulated clock).
  TimeNs lag = 0;         ///< behind-schedule sim-ns after this step
  bool overrun = false;   ///< watchdog flagged excessive lag growth
  bool degraded = false;  ///< overload governor was degrading quality
};

/// Aggregate of one cycle.
struct CycleStats {
  std::size_t cycle = 0;
  double mean_quality = 0;
  TimeNs action_time = 0;    ///< sum of action durations
  TimeNs overhead_time = 0;  ///< sum of manager costs
  TimeNs completion = 0;     ///< absolute platform time at cycle end
  std::size_t manager_calls = 0;
  std::size_t deadline_misses = 0;
  std::size_t infeasible_decisions = 0;
  // Real-time fields (all zero/false on the simulated clock).
  TimeNs end_lag = 0;     ///< behind-schedule sim-ns at cycle end
  bool degraded = false;  ///< governor degrading when the cycle closed
};

struct RunResult {
  std::vector<ExecStep> steps;        ///< per-step records (empty when not retained)
  std::vector<CycleStats> cycles;     ///< per-cycle aggregates (empty when not retained)
  std::size_t total_steps = 0;        ///< executed actions (valid in streaming mode)
  double quality_sum = 0;             ///< summed per-step quality levels
  std::uint64_t total_ops = 0;        ///< summed Decision.ops of manager calls
  TimeNs total_time = 0;              ///< absolute completion time
  TimeNs total_action_time = 0;
  TimeNs total_overhead_time = 0;
  std::size_t total_manager_calls = 0;
  std::size_t total_deadline_misses = 0;
  std::size_t total_infeasible = 0;

  /// Overhead as a fraction of total busy time (the paper's §4.2 metric).
  double overhead_fraction() const;
  /// Mean quality over every executed action (works in streaming mode).
  double mean_quality() const;
  /// Quality sequence of one cycle (for smoothness analysis; requires
  /// retained steps).
  std::vector<Quality> cycle_qualities(std::size_t cycle) const;
};

/// Runs `opts.cycles` cycles of the application under the manager.
/// `source` provides per-cycle actual times; it must offer at least
/// opts.cycles cycles of content (or wrap around, at its discretion).
/// This is the step loop of sim/executor_loop.hpp instantiated over the
/// abstract interfaces.
RunResult run_cyclic(const ScheduledApp& app, QualityManager& manager,
                     CyclicTimeSource& source, const ExecutorOptions& opts);

}  // namespace speedqm

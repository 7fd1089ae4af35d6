// The cyclic executor's step loop, written once as a template over the
// manager, content source and step sink it calls every step.
//
// run_cyclic (sim/executor.hpp) instantiates it over the abstract
// interfaces (QualityManager, CyclicTimeSource, StepSink), so any
// decorator stack plugs in. A caller that holds final concrete types can
// instantiate it over those instead: every per-step call then binds
// statically and inlines (ShardedServer does this for shards without
// decorators). Both instantiations execute the same statements, so they
// produce bit-identical results for the same inputs.
//
// Not a public header: include it only where an instantiation is made.
#pragma once

#include <algorithm>

#include "sim/executor.hpp"
#include "support/contract.hpp"

namespace speedqm {

/// Runs `opts.cycles` cycles like run_cyclic, folding steps and cycles
/// into `sink` (may be null) instead of `opts.sink`.
template <class Manager, class Source, class Sink>
RunResult run_cyclic_loop(const ScheduledApp& app, Manager& manager,
                          Source& source, Sink* sink,
                          const ExecutorOptions& opts) {
  SPEEDQM_REQUIRE(opts.cycles >= 1, "run_cyclic: need at least one cycle");
  SPEEDQM_REQUIRE(source.num_cycles() >= 1, "run_cyclic: source has no content");

  const ActionIndex n = app.size();
  const TimeNs period = opts.period > 0 ? opts.period : app.final_deadline();
  SPEEDQM_REQUIRE(period > 0, "run_cyclic: non-positive cycle period");

  SPEEDQM_REQUIRE(opts.start_time >= 0, "run_cyclic: negative start time");

  RunResult result;
  if (opts.retain_steps) result.steps.reserve(opts.cycles * n);
  if (opts.retain_cycles) result.cycles.reserve(opts.cycles);

  TimeNs t_abs = opts.start_time;  // absolute platform time
  bool stop = false;               // sink-requested early termination
  ExecutionPacer* const pacer = opts.pacer;

  for (std::size_t k = 0; k < opts.cycles && !stop; ++k) {
    const std::size_t cycle = opts.start_cycle + k;
    source.set_cycle(cycle % source.num_cycles());
    manager.reset();
    if (pacer) pacer->prepare_cycle(cycle);

    // Cycle-relative observation origin. With slack carry-over, cycle c is
    // measured against its absolute milestone start c * period: being ahead
    // of schedule yields negative observed times (= extra budget). Without
    // carry-over the cycle's own start time is the origin and slack is lost;
    // a cycle that *overran* still inherits the delay (time cannot rewind).
    const TimeNs origin =
        opts.carry_slack ? static_cast<TimeNs>(cycle) * period : t_abs;

    CycleStats cs;
    cs.cycle = cycle;
    double qsum = 0;

    Quality active_quality = kQmin;
    int remaining_coverage = 0;

    for (ActionIndex i = 0; i < n; ++i) {
      ExecStep step;
      step.cycle = cycle;
      step.action = i;

      if (remaining_coverage == 0) {
        // Under real-time pacing the manager sees the schedule slip too:
        // lag is the wall clock's excess over the charged schedule,
        // expressed in simulated ns (exactly 0 on a noiseless clock).
        const TimeNs observed = t_abs - origin + (pacer ? pacer->lag() : 0);
        const Decision d = manager.decide(i, observed);
        SPEEDQM_ASSERT(d.relax_steps >= 1, "manager returned relax_steps < 1");
        active_quality = d.quality;
        remaining_coverage = std::min<int>(d.relax_steps, static_cast<int>(n - i));

        const TimeNs cost = opts.platform.manager_cost(d.ops);
        t_abs += cost;
        if (pacer) pacer->charge(cost);

        step.manager_called = true;
        step.observed = observed;
        step.overhead = cost;
        step.feasible = d.feasible;
        step.relax_steps = remaining_coverage;
        step.ops = d.ops;
        ++cs.manager_calls;
        cs.overhead_time += cost;
        if (!d.feasible) ++cs.infeasible_decisions;
      }
      --remaining_coverage;

      step.quality = active_quality;
      const TimeNs raw = source.actual_time(i, active_quality);
      SPEEDQM_REQUIRE(raw >= 0, "run_cyclic: negative actual execution time");
      step.duration = opts.platform.scale(raw);
      t_abs += step.duration;
      step.start = t_abs - step.duration;

      cs.action_time += step.duration;
      qsum += static_cast<double>(active_quality);

      if (pacer) {
        pacer->charge(step.duration);
        pacer->finish_step(step);
      }
      if (app.has_deadline(i) &&
          (t_abs - origin + (pacer ? pacer->lag() : 0)) > app.deadline(i)) {
        ++cs.deadline_misses;
      }
      ++result.total_steps;
      result.quality_sum += static_cast<double>(active_quality);
      result.total_ops += step.ops;
      if (opts.retain_steps) result.steps.push_back(step);
      if (sink) {
        sink->on_step(step);
        if (sink->want_stop()) {
          stop = true;
          break;
        }
      }
    }

    // A stopped cycle is incomplete: no CycleStats are emitted or retained,
    // but its partial sums still flow into the run totals below.
    if (!stop) {
      cs.completion = t_abs;
      cs.mean_quality = qsum / static_cast<double>(n);
      if (pacer) pacer->finish_cycle(cs);
      if (opts.retain_cycles) result.cycles.push_back(cs);
      if (sink) sink->on_cycle(cs);
    }

    result.total_action_time += cs.action_time;
    result.total_overhead_time += cs.overhead_time;
    result.total_manager_calls += cs.manager_calls;
    result.total_deadline_misses += cs.deadline_misses;
    result.total_infeasible += cs.infeasible_decisions;
  }

  result.total_time = t_abs;
  return result;
}

}  // namespace speedqm

#include "sim/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace speedqm {

RunSummaryAccumulator::RunSummaryAccumulator(std::string manager_name)
    : manager_(std::move(manager_name)) {}

void RunSummaryAccumulator::on_cycle(const CycleStats& cycle) {
  ++cycles_seen_;
  deadline_misses_ += cycle.deadline_misses;
  completion_ = cycle.completion;
  if (cycle.degraded) ++degraded_cycles_;
  max_lag_ = std::max(max_lag_, cycle.end_lag);
  if (keep_cycle_series_) cycle_quality_.push_back(cycle.mean_quality);

  if (!stress_ranges_.empty()) {
    // Ranges are merged and sorted; binary-search the one that could
    // contain this cycle (cycles arrive in order, but shard segments may
    // restart the stream, so stay order-agnostic).
    auto it = std::upper_bound(
        stress_ranges_.begin(), stress_ranges_.end(),
        std::make_pair(cycle.cycle, static_cast<std::size_t>(-1)));
    const bool in_stress = it != stress_ranges_.begin() &&
                           cycle.cycle < std::prev(it)->second;
    if (in_stress) {
      ++stress_cycles_;
      misses_in_stress_ += cycle.deadline_misses;
      in_recovery_ = true;  // armed; first post-window cycles are recovery
    } else if (in_recovery_) {
      if (cycle.deadline_misses > 0) {
        ++recovery_cycles_;
        misses_in_recovery_ += cycle.deadline_misses;
      } else {
        in_recovery_ = false;  // first clean cycle ends the recovery tail
      }
    }
  }
}

RunSummary RunSummaryAccumulator::finish() const {
  RunSummary s;
  s.manager = manager_;
  s.total_steps = steps_;
  s.manager_calls = manager_calls_;
  s.deadline_misses = deadline_misses_;
  s.infeasible = infeasible_;
  s.total_ops = ops_;
  s.total_time_s = to_sec(completion_);
  s.relax_histogram = relax_histogram_;
  s.stress_cycles = stress_cycles_;
  s.misses_in_stress = misses_in_stress_;
  s.recovery_cycles = recovery_cycles_;
  s.misses_in_recovery = misses_in_recovery_;
  s.overrun_steps = overrun_steps_;
  s.degraded_steps = degraded_steps_;
  s.degraded_cycles = degraded_cycles_;
  s.max_lag_ns = max_lag_;
  s.cycles_seen = cycles_seen_;
  s.decision_latency_ns = decision_latency_;
  s.decision_latency_ns.record(latency_value_, latency_run_);

  const double busy = static_cast<double>(action_time_ + overhead_time_);
  if (busy > 0.0) {
    s.overhead_pct = 100.0 * static_cast<double>(overhead_time_) / busy;
  }
  if (steps_ > 0) {
    const auto n = static_cast<double>(steps_);
    s.mean_quality = q_sum_ / n;
    s.mean_overhead_per_action_us = to_us(overhead_time_) / n;
    s.smoothness.length = steps_;
    s.smoothness.mean_quality = s.mean_quality;
    s.smoothness.min_quality = min_q_;
    s.smoothness.max_quality = max_q_;
    // Online stddev via E[q^2] - mean^2 (guarded against cancellation
    // producing a tiny negative); q and q^2 are small integers, so the
    // sums are exact doubles far beyond any realistic replay length.
    s.smoothness.quality_stddev =
        std::sqrt(std::max(0.0, q_sq_sum_ / n - s.mean_quality * s.mean_quality));
    s.smoothness.switches = switches_;
    s.smoothness.max_jump = max_jump_;
    if (steps_ > 1) {
      s.smoothness.mean_abs_jump = jump_sum_ / static_cast<double>(steps_ - 1);
    }
  }
  return s;
}

RunSummary summarize_run(const std::string& manager_name, const RunResult& run) {
  RunSummaryAccumulator acc(manager_name);
  for (const auto& step : run.steps) acc.on_step(step);
  for (const auto& cycle : run.cycles) acc.on_cycle(cycle);
  RunSummary s = acc.finish();
  // Streaming-mode runs carry their aggregates in the RunResult scalars;
  // fall back to them for whatever a non-retained vector cannot supply.
  // (Per-step detail — smoothness, the relaxation histogram — needs a
  // RunSummaryAccumulator sink on the run itself.)
  if (run.steps.empty() && run.total_steps > 0) {
    s.total_steps = run.total_steps;
    s.mean_quality = run.mean_quality();
    s.manager_calls = run.total_manager_calls;
    s.infeasible = run.total_infeasible;
    s.total_ops = run.total_ops;
    s.overhead_pct = 100.0 * run.overhead_fraction();
    s.mean_overhead_per_action_us = to_us(run.total_overhead_time) /
                                    static_cast<double>(run.total_steps);
  }
  if (run.cycles.empty()) {
    s.deadline_misses = run.total_deadline_misses;
    s.total_time_s = to_sec(run.total_time);
  }
  return s;
}

std::vector<double> per_cycle_quality(const RunResult& run) {
  std::vector<double> out;
  out.reserve(run.cycles.size());
  for (const auto& c : run.cycles) out.push_back(c.mean_quality);
  return out;
}

std::vector<TimeNs> per_action_overhead(const RunResult& run, std::size_t cycle) {
  std::vector<TimeNs> out;
  for (const auto& step : run.steps) {
    if (step.cycle == cycle) out.push_back(step.overhead);
  }
  return out;
}

}  // namespace speedqm

// Run-level metric extraction and comparison helpers for benches.
//
// Two ways to build a RunSummary:
//   * summarize_run(name, run) — from a retained RunResult (unchanged API);
//   * RunSummaryAccumulator — a StepSink that folds the identical summary
//     online, O(1) work and memory per step, for streaming replays where
//     per-step records are never materialized (ExecutorOptions::
//     retain_steps = false). summarize_run is implemented by replaying the
//     retained records through the accumulator, so the two paths produce
//     bit-identical summaries for the same step stream.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/smoothness.hpp"
// The SLO histogram is layered under serve/ (the serving report is its
// consumer) but is dependency-free, so folding it per step here does not
// couple sim/ to anything above it.
#include "serve/slo_histogram.hpp"
#include "sim/executor.hpp"
#include "support/cache_line.hpp"

namespace speedqm {

/// A compact run summary used by the bench tables.
struct RunSummary {
  std::string manager;
  double mean_quality = 0;
  double overhead_pct = 0;           ///< 100 * overhead / (overhead + action)
  double mean_overhead_per_action_us = 0;
  std::size_t total_steps = 0;
  std::size_t manager_calls = 0;
  std::size_t deadline_misses = 0;
  std::size_t infeasible = 0;
  /// Summed Decision.ops over every manager call (deterministic for a
  /// fixed seed, so serving benches can gate on it).
  std::uint64_t total_ops = 0;
  double total_time_s = 0;
  /// Stress attribution (all zero unless the accumulator was handed the
  /// perturbation windows via track_stress_windows): cycles inside scripted
  /// stress windows, deadline misses on those cycles, post-window recovery
  /// cycles (consecutive missing cycles after a window until the first
  /// clean one), and the misses incurred during recovery. Misses outside
  /// stress + recovery are "unattributed" — under an admission-controlled
  /// mix they should be zero, which is what the degradation gate checks.
  std::size_t stress_cycles = 0;
  std::size_t misses_in_stress = 0;
  std::size_t recovery_cycles = 0;
  std::size_t misses_in_recovery = 0;
  /// Real-time supervision counters (all zero on the simulated clock):
  /// steps the watchdog flagged as overrunning, steps/cycles executed while
  /// the overload governor was degrading quality, and the worst
  /// behind-schedule lag (simulated ns) seen on any step.
  std::size_t overrun_steps = 0;
  std::size_t degraded_steps = 0;
  std::size_t degraded_cycles = 0;
  TimeNs max_lag_ns = 0;
  /// Executed cycles folded through on_cycle (the deadline-miss SLO's
  /// denominator: miss_rate = deadline_misses / cycles_seen).
  std::size_t cycles_seen = 0;
  /// Simulated decision latency: the manager-call overhead (ns) of every
  /// step that consulted the manager. Deterministic — fed from simulated
  /// time, never the host clock — so serving differentials can compare it
  /// bit for bit (serve/slo_histogram.hpp).
  SloHistogram decision_latency_ns;
  SmoothnessReport smoothness;       ///< over the full quality sequence
  /// Decided relaxation depths: relax_histogram[r] = number of decisions
  /// that covered r actions (index 0 unused). Flat so the streaming fold
  /// performs no node allocations per summarized step.
  std::vector<std::size_t> relax_histogram;
};

/// Folds a RunSummary (including the smoothness report and the relaxation
/// histogram) online from a step/cycle stream. Plug into
/// ExecutorOptions::sink for replays beyond what retained steps can hold;
/// every fold is O(1) per step with no per-step allocation. Cache-line
/// aligned: each shard's accumulator is written every step by its own
/// worker (support/cache_line.hpp).
class alignas(kCacheLineBytes) RunSummaryAccumulator final : public StepSink {
 public:
  explicit RunSummaryAccumulator(std::string manager_name);

  /// Inline so the executor's concrete serving loop folds each step
  /// without a call.
  void on_step(const ExecStep& step) override {
    const Quality q = step.quality;
    if (steps_ == 0) {
      min_q_ = q;
      max_q_ = q;
    } else {
      min_q_ = std::min(min_q_, q);
      max_q_ = std::max(max_q_, q);
    }
    ++steps_;
    q_sum_ += static_cast<double>(q);
    q_sq_sum_ += static_cast<double>(q) * static_cast<double>(q);
    if (has_prev_) {
      const int jump = std::abs(q - prev_q_);
      if (jump != 0) ++switches_;
      max_jump_ = std::max(max_jump_, jump);
      jump_sum_ += jump;
    }
    prev_q_ = q;
    has_prev_ = true;

    action_time_ += step.duration;
    overhead_time_ += step.overhead;
    if (step.manager_called) {
      ++manager_calls_;
      ops_ += step.ops;
      if (!step.feasible) ++infeasible_;
      const auto r = static_cast<std::size_t>(step.relax_steps);
      if (r >= relax_histogram_.size()) relax_histogram_.resize(r + 1, 0);
      ++relax_histogram_[r];
      // Decision latency is the SIMULATED overhead charged for this
      // manager call — deterministic, so the SLO quantiles are
      // differential-safe. Runs of equal values (the common case: every
      // cached epoch decision costs the same) are recorded once with their
      // count; the histogram fold is order-free, so the result is
      // identical to recording each value.
      const std::uint64_t latency =
          step.overhead > 0 ? static_cast<std::uint64_t>(step.overhead) : 0;
      if (latency_run_ != 0 && latency != latency_value_) {
        decision_latency_.record(latency_value_, latency_run_);
        latency_run_ = 0;
      }
      latency_value_ = latency;
      ++latency_run_;
    }

    if (step.overrun) ++overrun_steps_;
    if (step.degraded) ++degraded_steps_;
    max_lag_ = std::max(max_lag_, step.lag);
  }
  void on_cycle(const CycleStats& cycle) override;

  /// Enables stress attribution: `ranges` are merged, sorted [begin, end)
  /// ABSOLUTE cycle ranges (PerturbationScenario::stress_ranges()). Cycles
  /// inside a range fold into stress_cycles / misses_in_stress; missing
  /// cycles immediately after a range fold into recovery until the first
  /// clean cycle.
  void track_stress_windows(std::vector<std::pair<std::size_t, std::size_t>> ranges) {
    stress_ranges_ = std::move(ranges);
  }

  /// When enabled, keeps the per-cycle mean-quality series (figure 7's
  /// y-axis; one double per cycle — the only non-O(1) retention, opt-in).
  void keep_cycle_series(bool keep) { keep_cycle_series_ = keep; }
  const std::vector<double>& cycle_quality_series() const {
    return cycle_quality_;
  }

  std::size_t steps_seen() const { return steps_; }

  /// The summary folded so far.
  RunSummary finish() const;

 private:
  std::string manager_;
  // Step folds.
  std::size_t steps_ = 0;
  std::size_t manager_calls_ = 0;
  std::size_t infeasible_ = 0;
  std::uint64_t ops_ = 0;
  TimeNs action_time_ = 0;
  TimeNs overhead_time_ = 0;
  std::vector<std::size_t> relax_histogram_;
  // Online smoothness state.
  double q_sum_ = 0;
  double q_sq_sum_ = 0;
  double jump_sum_ = 0;
  std::size_t switches_ = 0;
  int max_jump_ = 0;
  Quality min_q_ = 0;
  Quality max_q_ = 0;
  bool has_prev_ = false;
  Quality prev_q_ = 0;
  // Cycle folds.
  std::size_t deadline_misses_ = 0;
  TimeNs completion_ = 0;
  bool keep_cycle_series_ = false;
  std::vector<double> cycle_quality_;
  // Stress attribution state.
  std::vector<std::pair<std::size_t, std::size_t>> stress_ranges_;
  bool in_recovery_ = false;
  std::size_t stress_cycles_ = 0;
  std::size_t misses_in_stress_ = 0;
  std::size_t recovery_cycles_ = 0;
  std::size_t misses_in_recovery_ = 0;
  // Real-time supervision folds.
  std::size_t overrun_steps_ = 0;
  std::size_t degraded_steps_ = 0;
  std::size_t degraded_cycles_ = 0;
  TimeNs max_lag_ = 0;
  // SLO folds.
  std::size_t cycles_seen_ = 0;
  SloHistogram decision_latency_;  ///< every latency run already closed
  std::uint64_t latency_value_ = 0;  ///< value of the open run
  std::uint64_t latency_run_ = 0;    ///< length of the open run (0 = none)
};

/// Builds the summary from a retained run (replays it through
/// RunSummaryAccumulator).
RunSummary summarize_run(const std::string& manager_name, const RunResult& run);

/// Per-cycle mean quality series (figure 7's y-axis).
std::vector<double> per_cycle_quality(const RunResult& run);

/// Per-action overhead (ns) of one cycle, indexed by action (figure 8's
/// y-axis; actions inside a relaxation window have zero overhead).
std::vector<TimeNs> per_action_overhead(const RunResult& run, std::size_t cycle);

}  // namespace speedqm

// Streaming-executor edge cases:
//   * a StepSink that throws propagates out of run_cyclic;
//   * a StepSink that requests early termination (want_stop) ends the run
//     after the delivered step with consistent scalar totals and no
//     CycleStats for the incomplete cycle;
//   * retain_cycles = false with retain_steps = true (and vice versa)
//     keep exactly the requested vectors;
//   * zero-length streams through RunSummaryAccumulator produce a
//     well-defined all-zero summary (no division by zero / NaN), and
//     finish() mid-stream leaves the fold undisturbed;
//   * the real-time fields (lag / overrun / degraded) fold correctly
//     through the accumulator, across split-run handoffs, and through the
//     serving-level shard-order fold.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/numeric_manager.hpp"
#include "serve/serving_summary.hpp"
#include "sim/executor.hpp"
#include "sim/metrics.hpp"
#include "workload/synthetic.hpp"

namespace speedqm {
namespace {

struct Fixture {
  Fixture() : workload(make_spec()), engine(workload.app(), workload.timing()),
              manager(engine) {}

  static SyntheticSpec make_spec() {
    SyntheticSpec spec;
    spec.num_actions = 12;
    spec.num_levels = 5;
    spec.num_cycles = 4;
    spec.budget_quality = 3;
    spec.seed = 7;
    return spec;
  }

  ExecutorOptions options(std::size_t cycles) {
    ExecutorOptions opts;
    opts.cycles = cycles;
    return opts;
  }

  SyntheticWorkload workload;
  PolicyEngine engine;
  NumericManager manager;
};

struct ThrowingSink final : StepSink {
  std::size_t after = 0;
  std::size_t seen = 0;
  void on_step(const ExecStep&) override {
    if (++seen > after) throw std::runtime_error("sink failure");
  }
};

struct StoppingSink final : StepSink {
  std::size_t after = 0;
  std::size_t seen = 0;
  double quality_sum = 0;
  void on_step(const ExecStep& step) override {
    ++seen;
    quality_sum += static_cast<double>(step.quality);
  }
  bool want_stop() const override { return seen >= after; }
};

TEST(StreamingEdges, ThrowingSinkPropagates) {
  Fixture f;
  ThrowingSink sink;
  sink.after = 5;
  ExecutorOptions opts = f.options(2);
  opts.sink = &sink;
  EXPECT_THROW(
      run_cyclic(f.workload.app(), f.manager, f.workload.traces(), opts),
      std::runtime_error);
  EXPECT_EQ(sink.seen, 6u);  // the throwing call itself observed the step
}

TEST(StreamingEdges, EarlyStopKeepsTotalsConsistent) {
  Fixture f;
  // Stop mid-second-cycle: 12 actions per cycle, stop after 17 steps.
  StoppingSink sink;
  sink.after = 17;
  ExecutorOptions opts = f.options(4);
  opts.sink = &sink;
  const RunResult run =
      run_cyclic(f.workload.app(), f.manager, f.workload.traces(), opts);

  EXPECT_EQ(run.total_steps, 17u);
  EXPECT_EQ(run.steps.size(), 17u);          // retained steps stop too
  EXPECT_EQ(run.cycles.size(), 1u);          // cycle 1 incomplete: dropped
  EXPECT_EQ(run.quality_sum, sink.quality_sum);
  // Scalar totals cover the partial cycle (consistency with steps).
  TimeNs action_time = 0;
  std::size_t calls = 0;
  for (const ExecStep& step : run.steps) {
    action_time += step.duration;
    if (step.manager_called) ++calls;
  }
  EXPECT_EQ(run.total_action_time, action_time);
  EXPECT_EQ(run.total_manager_calls, calls);
  EXPECT_EQ(run.total_time, run.steps.back().start + run.steps.back().duration);
}

TEST(StreamingEdges, EarlyStopInStreamingMode) {
  Fixture f;
  StoppingSink sink;
  sink.after = 3;
  ExecutorOptions opts = f.options(4);
  opts.retain_steps = false;
  opts.retain_cycles = false;
  opts.sink = &sink;
  const RunResult run =
      run_cyclic(f.workload.app(), f.manager, f.workload.traces(), opts);
  EXPECT_EQ(run.total_steps, 3u);
  EXPECT_TRUE(run.steps.empty());
  EXPECT_TRUE(run.cycles.empty());
  EXPECT_EQ(run.mean_quality(), sink.quality_sum / 3.0);
}

TEST(StreamingEdges, RetainStepsWithoutCycles) {
  Fixture f;
  ExecutorOptions both = f.options(3);
  const RunResult full =
      run_cyclic(f.workload.app(), f.manager, f.workload.traces(), both);

  f.manager.reset();
  ExecutorOptions steps_only = f.options(3);
  steps_only.retain_cycles = false;
  const RunResult run = run_cyclic(f.workload.app(), f.manager,
                                   f.workload.traces(), steps_only);
  EXPECT_EQ(run.steps.size(), full.steps.size());
  EXPECT_TRUE(run.cycles.empty());
  EXPECT_EQ(run.total_deadline_misses, full.total_deadline_misses);
  EXPECT_EQ(run.total_time, full.total_time);
  // summarize_run falls back to the scalar totals for what cycles carry.
  const RunSummary summary = summarize_run("steps-only", run);
  const RunSummary want = summarize_run("steps-only", full);
  EXPECT_EQ(summary.deadline_misses, want.deadline_misses);
  EXPECT_EQ(summary.total_time_s, want.total_time_s);
  EXPECT_EQ(summary.mean_quality, want.mean_quality);
  EXPECT_EQ(summary.total_ops, want.total_ops);
}

TEST(StreamingEdges, RetainCyclesWithoutSteps) {
  Fixture f;
  ExecutorOptions opts = f.options(3);
  opts.retain_steps = false;
  const RunResult run =
      run_cyclic(f.workload.app(), f.manager, f.workload.traces(), opts);
  EXPECT_TRUE(run.steps.empty());
  EXPECT_EQ(run.cycles.size(), 3u);
  EXPECT_GT(run.total_steps, 0u);
  // The ops aggregate survives streaming mode (no retained steps, no
  // sink): summarize_run must fall back to the RunResult scalar.
  EXPECT_GT(run.total_ops, 0u);
  EXPECT_EQ(summarize_run("cycles-only", run).total_ops, run.total_ops);
}

TEST(StreamingEdges, ZeroLengthAccumulatorIsWellDefined) {
  RunSummaryAccumulator acc("empty");
  const RunSummary summary = acc.finish();
  EXPECT_EQ(summary.total_steps, 0u);
  EXPECT_EQ(summary.manager_calls, 0u);
  EXPECT_EQ(summary.total_ops, 0u);
  EXPECT_EQ(summary.mean_quality, 0.0);
  EXPECT_EQ(summary.overhead_pct, 0.0);
  EXPECT_EQ(summary.mean_overhead_per_action_us, 0.0);
  EXPECT_FALSE(std::isnan(summary.smoothness.quality_stddev));
  EXPECT_EQ(summary.smoothness.quality_stddev, 0.0);
  EXPECT_TRUE(summary.relax_histogram.empty());
  // The real-time fields zero-initialize like everything else.
  EXPECT_EQ(summary.overrun_steps, 0u);
  EXPECT_EQ(summary.degraded_steps, 0u);
  EXPECT_EQ(summary.degraded_cycles, 0u);
  EXPECT_EQ(summary.max_lag_ns, 0);
  // A RunResult that executed nothing is equally well-defined.
  RunResult empty;
  EXPECT_EQ(empty.mean_quality(), 0.0);
  EXPECT_EQ(empty.overhead_fraction(), 0.0);
  const RunSummary from_empty = summarize_run("empty", empty);
  EXPECT_EQ(from_empty.total_steps, 0u);
  EXPECT_EQ(from_empty.mean_quality, 0.0);
}

TEST(StreamingEdges, AccumulatorMatchesEarlyStoppedRun) {
  // The accumulator fed by a stopped run equals the summary of the
  // retained records of the same stopped run.
  Fixture f;
  struct StopAndFold final : StepSink {
    RunSummaryAccumulator acc{"stopper"};
    std::size_t after = 0;
    std::size_t seen = 0;
    void on_step(const ExecStep& step) override {
      ++seen;
      acc.on_step(step);
    }
    void on_cycle(const CycleStats& cycle) override { acc.on_cycle(cycle); }
    bool want_stop() const override { return seen >= after; }
  } sink;
  sink.after = 20;
  ExecutorOptions opts = f.options(4);
  opts.sink = &sink;
  const RunResult run =
      run_cyclic(f.workload.app(), f.manager, f.workload.traces(), opts);
  const RunSummary streamed = sink.acc.finish();
  const RunSummary replayed = summarize_run("stopper", run);
  EXPECT_EQ(streamed.total_steps, replayed.total_steps);
  EXPECT_EQ(streamed.mean_quality, replayed.mean_quality);
  EXPECT_EQ(streamed.manager_calls, replayed.manager_calls);
  EXPECT_EQ(streamed.total_ops, replayed.total_ops);
  EXPECT_EQ(streamed.relax_histogram, replayed.relax_histogram);
}

TEST(StreamingEdges, FinishMidStreamDoesNotDisturbTheFold) {
  // finish() folds the accumulator's open latency run into the returned
  // summary only: two calls mid-stream agree, and the stream continued
  // afterwards folds exactly like one never interrupted.
  RunSummaryAccumulator interrupted("acc");
  RunSummaryAccumulator straight("acc");
  SloHistogram per_step;
  const TimeNs overheads[] = {200, 200, 200, 350, 350, 200, 0, 0, 200, 350};
  const auto feed = [&](std::size_t k) {
    ExecStep step;
    step.quality = static_cast<Quality>(k % 4);
    step.duration = 1000;
    step.manager_called = k % 3 != 2;
    step.overhead = step.manager_called ? overheads[k % 10] : 0;
    step.ops = k;
    interrupted.on_step(step);
    straight.on_step(step);
    if (step.manager_called) {
      per_step.record(static_cast<std::uint64_t>(step.overhead));
    }
  };
  for (std::size_t k = 0; k < 14; ++k) feed(k);
  const RunSummary first = interrupted.finish();
  const RunSummary second = interrupted.finish();
  EXPECT_EQ(first.decision_latency_ns, second.decision_latency_ns);
  EXPECT_EQ(first.decision_latency_ns, per_step);
  EXPECT_EQ(first.total_steps, second.total_steps);
  EXPECT_EQ(first.manager_calls, second.manager_calls);
  EXPECT_EQ(first.total_ops, second.total_ops);
  EXPECT_EQ(first.mean_quality, second.mean_quality);
  EXPECT_EQ(first.relax_histogram, second.relax_histogram);

  for (std::size_t k = 14; k < 40; ++k) feed(k);
  const RunSummary resumed = interrupted.finish();
  const RunSummary whole = straight.finish();
  EXPECT_EQ(resumed.decision_latency_ns, whole.decision_latency_ns);
  EXPECT_EQ(resumed.decision_latency_ns, per_step);
  EXPECT_EQ(resumed.total_steps, whole.total_steps);
  EXPECT_EQ(resumed.manager_calls, whole.manager_calls);
  EXPECT_EQ(resumed.mean_quality, whole.mean_quality);
}

TEST(StreamingEdges, AccumulatorFoldsRealtimeStepFields) {
  // Hand-fed step/cycle records with real-time annotations: counters sum,
  // max lag is the max over steps AND cycle end-lags.
  RunSummaryAccumulator acc("realtime");
  ExecStep step;
  step.quality = 2;
  step.lag = 400;
  step.overrun = true;
  step.degraded = true;
  acc.on_step(step);
  step.lag = 150;
  step.overrun = false;
  step.degraded = false;
  acc.on_step(step);
  CycleStats cycle;
  cycle.end_lag = 900;
  cycle.degraded = true;
  acc.on_cycle(cycle);
  cycle.end_lag = 100;
  cycle.degraded = false;
  acc.on_cycle(cycle);

  const RunSummary summary = acc.finish();
  EXPECT_EQ(summary.overrun_steps, 1u);
  EXPECT_EQ(summary.degraded_steps, 1u);
  EXPECT_EQ(summary.degraded_cycles, 1u);
  EXPECT_EQ(summary.max_lag_ns, 900);
}

TEST(StreamingEdges, SplitAccumulatorHandoffPreservesRealtimeFields) {
  // A serving shard feeds ONE accumulator across several segments; the
  // fold must equal an unsplit feed of the same records.
  const auto feed = [](RunSummaryAccumulator& acc, TimeNs lag, bool overrun) {
    ExecStep step;
    step.quality = 1;
    step.lag = lag;
    step.overrun = overrun;
    step.degraded = overrun;
    acc.on_step(step);
    CycleStats cycle;
    cycle.end_lag = lag;
    cycle.degraded = overrun;
    acc.on_cycle(cycle);
  };
  RunSummaryAccumulator split("split");
  RunSummaryAccumulator whole("whole");
  feed(split, 700, true);   // segment 1
  feed(split, 50, false);   // segment 2, after a rebuild hand-off
  feed(whole, 700, true);
  feed(whole, 50, false);
  const RunSummary a = split.finish();
  const RunSummary b = whole.finish();
  EXPECT_EQ(a.overrun_steps, b.overrun_steps);
  EXPECT_EQ(a.degraded_steps, b.degraded_steps);
  EXPECT_EQ(a.degraded_cycles, b.degraded_cycles);
  EXPECT_EQ(a.max_lag_ns, 700);
  EXPECT_EQ(b.max_lag_ns, 700);
}

TEST(StreamingEdges, ServingFoldAggregatesRealtimeCountersInShardOrder) {
  ShardReport s0;
  s0.shard = 0;
  s0.summary.total_steps = 10;
  s0.summary.overrun_steps = 2;
  s0.summary.degraded_steps = 4;
  s0.summary.degraded_cycles = 1;
  s0.summary.max_lag_ns = 500;
  ShardReport s1;
  s1.shard = 1;
  s1.summary.total_steps = 6;
  s1.summary.overrun_steps = 3;
  s1.summary.degraded_steps = 0;
  s1.summary.degraded_cycles = 2;
  s1.summary.max_lag_ns = 900;

  const ServingSummary folded =
      fold_serving_summary({s0, s1}, /*admissions=*/{}, /*leaves=*/0);
  EXPECT_EQ(folded.overrun_steps, 5u);
  EXPECT_EQ(folded.degraded_steps, 4u);
  EXPECT_EQ(folded.degraded_cycles, 3u);
  EXPECT_EQ(folded.max_lag_ns, 900);

  // The empty fold is well-defined, all-zero.
  const ServingSummary empty = fold_serving_summary({}, {}, 0);
  EXPECT_EQ(empty.total_steps, 0u);
  EXPECT_EQ(empty.overrun_steps, 0u);
  EXPECT_EQ(empty.max_lag_ns, 0);
  EXPECT_EQ(empty.mean_quality, 0.0);
}

}  // namespace
}  // namespace speedqm

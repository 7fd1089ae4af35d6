// Tests for the real-time executor backend (src/sim/realtime.*):
//   * differential guardrail: a virtual-clock paced run with no scripted
//     stalls is bit-identical to the simulated executor — single mix and
//     sharded serving, at 1 and 4 workers, decisions AND Decision.ops;
//   * scripted stall windows cost budget deterministically: lag, overruns,
//     deadline misses and governor interventions replay identically;
//   * StepWatchdog retry/backoff/escalation policy;
//   * OverloadGovernor hysteretic state machine, edge-triggered shedding,
//     and the GovernedManager quality clamp;
//   * split-vs-unsplit segment replay through a persistent pacer
//     (prepare_cycle's exactly-once stall injection);
//   * structured ServeError from a throwing per-step tap, on the control
//     thread and on a worker thread;
//   * the exit-code taxonomy (run_verdict / serving_verdict / exit_code);
//   * host WatchdogThread hang alarms on armed, heartbeat-silent pacers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/batch_engine.hpp"
#include "serve/serving_summary.hpp"
#include "serve/sharded_server.hpp"
#include "sim/executor.hpp"
#include "sim/metrics.hpp"
#include "sim/perturb.hpp"
#include "sim/realtime.hpp"
#include "workload/scenarios.hpp"

namespace speedqm {
namespace {

MultiTaskMixSpec small_mix_spec(std::size_t tasks, std::uint64_t seed) {
  MultiTaskMixSpec spec;
  spec.num_tasks = tasks;
  spec.seed = seed;
  spec.num_cycles = 8;
  spec.min_task_actions = 4;
  spec.max_task_actions = 24;
  return spec;
}

/// Field-by-field RunSummary equality, including the real-time fields
/// (bit-exact doubles: identical step streams, identical arithmetic).
void expect_summaries_identical(const RunSummary& a, const RunSummary& b) {
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.manager_calls, b.manager_calls);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.infeasible, b.infeasible);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.mean_quality, b.mean_quality);
  EXPECT_EQ(a.overhead_pct, b.overhead_pct);
  EXPECT_EQ(a.total_time_s, b.total_time_s);
  EXPECT_EQ(a.smoothness.quality_stddev, b.smoothness.quality_stddev);
  EXPECT_EQ(a.smoothness.switches, b.smoothness.switches);
  EXPECT_EQ(a.relax_histogram, b.relax_histogram);
  EXPECT_EQ(a.overrun_steps, b.overrun_steps);
  EXPECT_EQ(a.degraded_steps, b.degraded_steps);
  EXPECT_EQ(a.degraded_cycles, b.degraded_cycles);
  EXPECT_EQ(a.max_lag_ns, b.max_lag_ns);
}

/// One paced run over a fresh mix: virtual clock, optional stall windows,
/// the governor clamp wrapped outermost — the serving layer's shard setup
/// in miniature.
struct PacedRun {
  RunSummary summary;
  std::size_t stalled_cycles = 0;
  std::size_t governor_activations = 0;
  std::size_t watchdog_escalations = 0;
  GovernorState final_state = GovernorState::kNormal;
};

PacedRun run_paced(const MultiTaskMixSpec& mix_spec, std::size_t cycles,
                   const std::vector<StallWindow>& stalls) {
  MultiTaskMix mix(mix_spec);
  BatchMultiTaskManager manager(mix.composed(), mix.engines());
  RunSummaryAccumulator acc("paced");
  ExecutorOptions opts = mix.executor_options(cycles);
  opts.retain_steps = false;
  opts.retain_cycles = false;
  opts.sink = &acc;

  VirtualWallClock clock;
  RealtimeOptions ro;
  ro.clock = &clock;
  ro.period = opts.period;
  WallClockPacer pacer(ro);
  pacer.set_stall_windows(stalls);
  GovernedManager governed(manager, pacer.governor());
  opts.pacer = &pacer;

  run_cyclic(mix.composed().app(), governed, mix.source(), opts);
  PacedRun out;
  out.summary = acc.finish();
  out.stalled_cycles = pacer.stalled_cycles();
  out.governor_activations = pacer.governor().activations();
  out.watchdog_escalations = pacer.watchdog().escalations();
  out.final_state = pacer.governor().state();
  return out;
}

// --- Differential guardrail -------------------------------------------------

TEST(Realtime, VirtualPacedRunBitIdenticalToSimulated) {
  const MultiTaskMixSpec mix_spec = small_mix_spec(5, 20070730);
  const std::size_t cycles = 10;

  MultiTaskMix mix(mix_spec);
  BatchMultiTaskManager manager(mix.composed(), mix.engines());
  RunSummaryAccumulator acc("sim");
  ExecutorOptions opts = mix.executor_options(cycles);
  opts.retain_steps = false;
  opts.retain_cycles = false;
  opts.sink = &acc;
  run_cyclic(mix.composed().app(), manager, mix.source(), opts);
  const RunSummary sim = acc.finish();

  const PacedRun paced = run_paced(mix_spec, cycles, {});
  expect_summaries_identical(sim, paced.summary);
  // The noiseless clock never falls behind: zero lag, zero supervision.
  EXPECT_EQ(paced.summary.max_lag_ns, 0);
  EXPECT_EQ(paced.summary.overrun_steps, 0u);
  EXPECT_EQ(paced.summary.degraded_steps, 0u);
  EXPECT_EQ(paced.summary.degraded_cycles, 0u);
  EXPECT_EQ(paced.stalled_cycles, 0u);
  EXPECT_EQ(paced.governor_activations, 0u);
  EXPECT_EQ(paced.final_state, GovernorState::kNormal);
}

TEST(Realtime, ShardedVirtualMatchesSimAcrossWorkerCounts) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ShardedServerSpec spec;
    spec.mix = small_mix_spec(8, 11);
    spec.num_shards = 3;
    spec.num_workers = workers;
    spec.cycles = 16;

    ShardedServerSpec vspec = spec;
    vspec.clock = ClockMode::kVirtual;

    const ServingSummary sim = ShardedServer(spec).serve();
    const ServingSummary virt = ShardedServer(vspec).serve();

    ASSERT_EQ(sim.shards.size(), virt.shards.size());
    for (std::size_t s = 0; s < sim.shards.size(); ++s) {
      expect_summaries_identical(sim.shards[s].summary,
                                 virt.shards[s].summary);
      EXPECT_EQ(sim.shards[s].members, virt.shards[s].members);
      EXPECT_EQ(sim.shards[s].clock, virt.shards[s].clock);
      EXPECT_EQ(sim.shards[s].epochs, virt.shards[s].epochs);
    }
    EXPECT_EQ(sim.total_ops, virt.total_ops);
    EXPECT_EQ(sim.mean_quality, virt.mean_quality);
    EXPECT_EQ(virt.max_lag_ns, 0);
    EXPECT_EQ(virt.overrun_steps, 0u);
    EXPECT_EQ(virt.shed_tasks, 0u);
    EXPECT_EQ(virt.governor_activations, 0u);
    EXPECT_EQ(virt.forced_downgrades, 0u);
  }
}

// --- Scripted stalls --------------------------------------------------------

TEST(Realtime, ScriptedStallCostsBudgetDeterministically) {
  const MultiTaskMixSpec mix_spec = small_mix_spec(5, 20070730);
  const std::size_t cycles = 16;

  MultiTaskMix probe(mix_spec);
  const TimeNs period = probe.executor_options(cycles).period;
  // Three periods of host time vanish before cycle 2: far beyond the shed
  // threshold, draining at roughly one period per subsequent cycle.
  const std::vector<StallWindow> stalls = {{2, 3, 3 * period}};

  const PacedRun a = run_paced(mix_spec, cycles, stalls);
  const PacedRun b = run_paced(mix_spec, cycles, stalls);

  // The stall now costs budget: lag, overruns, misses, degradation.
  EXPECT_EQ(a.stalled_cycles, 1u);
  EXPECT_GE(a.summary.max_lag_ns, 2 * period);
  EXPECT_GT(a.summary.overrun_steps, 0u);
  EXPECT_GT(a.summary.deadline_misses, 0u);
  EXPECT_GT(a.summary.degraded_steps, 0u);
  EXPECT_GT(a.summary.degraded_cycles, 0u);
  EXPECT_GE(a.governor_activations, 1u);
  // Lag drains as simulated work is charged; with 13 quiet cycles after
  // the stall the governor has re-stabilized to Normal.
  EXPECT_EQ(a.final_state, GovernorState::kNormal);

  // Byte-for-byte replay: same script, same mix, same everything.
  expect_summaries_identical(a.summary, b.summary);
  EXPECT_EQ(a.stalled_cycles, b.stalled_cycles);
  EXPECT_EQ(a.governor_activations, b.governor_activations);
  EXPECT_EQ(a.watchdog_escalations, b.watchdog_escalations);
}

TEST(Realtime, SplitPacedRunEqualsUnsplit) {
  // The pacer persists across segments (like a serving shard's): replaying
  // prepare_cycle for already-prepared cycles must not re-inject stalls.
  const MultiTaskMixSpec mix_spec = small_mix_spec(4, 55);
  const std::size_t cycles = 12;
  const std::size_t split = 5;

  MultiTaskMix probe(mix_spec);
  const TimeNs period = probe.executor_options(cycles).period;
  const std::vector<StallWindow> stalls = {{3, 7, period}};

  const PacedRun whole = run_paced(mix_spec, cycles, stalls);

  MultiTaskMix mix(mix_spec);
  BatchMultiTaskManager manager(mix.composed(), mix.engines());
  RunSummaryAccumulator acc("split");
  VirtualWallClock clock;
  RealtimeOptions ro;
  ro.clock = &clock;
  ro.period = period;
  WallClockPacer pacer(ro);
  pacer.set_stall_windows(stalls);
  GovernedManager governed(manager, pacer.governor());

  ExecutorOptions head = mix.executor_options(split);
  head.retain_steps = false;
  head.retain_cycles = false;
  head.sink = &acc;
  head.pacer = &pacer;
  const RunResult first =
      run_cyclic(mix.composed().app(), governed, mix.source(), head);

  ExecutorOptions tail = mix.executor_options(cycles - split);
  tail.retain_steps = false;
  tail.retain_cycles = false;
  tail.sink = &acc;
  tail.pacer = &pacer;
  tail.start_cycle = split;
  tail.start_time = first.total_time;
  run_cyclic(mix.composed().app(), governed, mix.source(), tail);

  expect_summaries_identical(whole.summary, acc.finish());
  EXPECT_EQ(whole.stalled_cycles, pacer.stalled_cycles());
  EXPECT_EQ(whole.governor_activations, pacer.governor().activations());
}

TEST(Realtime, ShardedFlakyShardGovernorDeterministicOnVirtualClock) {
  // The catalogue's flaky-shard script on the virtual clock: stalls cost
  // budget, the run stays deterministic, and governor accounting is
  // attributed in the summary. wall_per_sim scales the fixed 2 ms/cycle
  // stall to several periods of lag.
  ShardedServerSpec spec;
  spec.mix = small_mix_spec(8, 7);
  spec.num_shards = 2;
  spec.num_workers = 2;
  spec.cycles = 32;
  spec.clock = ClockMode::kVirtual;
  spec.wall_per_sim = 1e-3;
  spec.perturb = make_perturbation_scenario("flaky-shard", spec.cycles);

  const ServingSummary a = ShardedServer(spec).serve();
  const ServingSummary b = ShardedServer(spec).serve();

  EXPECT_GT(a.stalled_cycles, 0u);
  EXPECT_GT(a.max_lag_ns, 0);
  EXPECT_GT(a.overrun_steps, 0u);
  // Stall misses are attributed: every miss lands in a stress or recovery
  // window of the (host-time-inclusive) attribution.
  EXPECT_GT(a.stress_cycles, 0u);
  EXPECT_EQ(a.deadline_misses, a.misses_in_stress + a.misses_in_recovery);

  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.mean_quality, b.mean_quality);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.max_lag_ns, b.max_lag_ns);
  EXPECT_EQ(a.overrun_steps, b.overrun_steps);
  EXPECT_EQ(a.degraded_steps, b.degraded_steps);
  EXPECT_EQ(a.degraded_cycles, b.degraded_cycles);
  EXPECT_EQ(a.shed_tasks, b.shed_tasks);
  EXPECT_EQ(a.readmitted_tasks, b.readmitted_tasks);
  EXPECT_EQ(a.governor_activations, b.governor_activations);
  EXPECT_EQ(a.forced_downgrades, b.forced_downgrades);
  EXPECT_EQ(a.watchdog_escalations, b.watchdog_escalations);
}

// --- StepWatchdog -----------------------------------------------------------

TEST(StepWatchdog, BackoffDoublesThenEscalates) {
  WatchdogConfig cfg;
  cfg.overrun_threshold = 100;
  cfg.max_retries = 2;
  StepWatchdog wd(cfg, /*period=*/0);

  EXPECT_FALSE(wd.observe(50));    // growth 50 <= 100
  EXPECT_TRUE(wd.observe(300));    // growth 250 > 100: overrun, retry 1
  EXPECT_FALSE(wd.escalated());
  EXPECT_TRUE(wd.observe(650));    // growth 350 > 200 (doubled): retry 2
  EXPECT_FALSE(wd.escalated());
  EXPECT_TRUE(wd.observe(1200));   // growth 550 > 400: retries exhausted
  EXPECT_TRUE(wd.escalated());
  EXPECT_EQ(wd.escalations(), 1u);
  // A tolerated step clears the escalation and the retry streak.
  EXPECT_FALSE(wd.observe(1300));  // growth 100 <= backoff tolerance
  EXPECT_FALSE(wd.escalated());
  EXPECT_EQ(wd.overruns(), 3u);
  EXPECT_EQ(wd.retries(), 2u);
  EXPECT_EQ(wd.escalations(), 1u);
}

TEST(StepWatchdog, AutoThresholdIsPeriodOverEight) {
  WatchdogConfig cfg;  // overrun_threshold = 0: auto
  StepWatchdog wd(cfg, /*period=*/800);
  EXPECT_FALSE(wd.observe(100));  // growth 100 <= 800/8
  EXPECT_TRUE(wd.observe(201));   // growth 101 > 100
}

// --- OverloadGovernor -------------------------------------------------------

TEST(OverloadGovernor, HystereticStateMachine) {
  GovernorConfig cfg;  // degrade 0.5, shed 2.0, readmit 0.125, hysteresis 4
  const TimeNs period = 1000;
  OverloadGovernor gov(cfg, period);

  EXPECT_EQ(gov.state(), GovernorState::kNormal);
  EXPECT_EQ(gov.clamp(5), 5);  // no clamp while Normal

  gov.on_cycle_end(600);  // >= 500: degrade
  EXPECT_EQ(gov.state(), GovernorState::kDegraded);
  EXPECT_TRUE(gov.degrading());
  EXPECT_EQ(gov.clamp(5), kQmin);
  EXPECT_EQ(gov.activations(), 1u);

  gov.on_cycle_end(2500);  // >= 2000: shed, edge-triggered request
  EXPECT_EQ(gov.state(), GovernorState::kShedding);
  EXPECT_TRUE(gov.take_shed_request());
  EXPECT_FALSE(gov.take_shed_request());  // consumed
  EXPECT_EQ(gov.shed_requests(), 1u);

  gov.on_cycle_end(300);  // hysteresis band (125..500): hold, reset streak
  EXPECT_EQ(gov.state(), GovernorState::kRecovering);
  EXPECT_TRUE(gov.degrading());

  for (int i = 0; i < 3; ++i) {
    gov.on_cycle_end(50);  // below readmit: streak builds
    EXPECT_EQ(gov.state(), GovernorState::kRecovering);
  }
  gov.on_cycle_end(50);  // 4th stable cycle: back to Normal
  EXPECT_EQ(gov.state(), GovernorState::kNormal);
  EXPECT_FALSE(gov.degrading());
  EXPECT_EQ(gov.clamp(5), 5);
  EXPECT_EQ(gov.activations(), 1u);  // one excursion, one activation
}

TEST(OverloadGovernor, WatchdogEscalationForcesShedding) {
  GovernorConfig cfg;
  OverloadGovernor gov(cfg, 1000);
  gov.escalate();
  gov.on_cycle_end(0);  // lag itself is harmless; escalation overrides
  EXPECT_EQ(gov.state(), GovernorState::kShedding);
  EXPECT_TRUE(gov.take_shed_request());
}

TEST(OverloadGovernor, DisabledGovernorNeverIntervenes) {
  GovernorConfig cfg;
  cfg.enabled = false;
  OverloadGovernor gov(cfg, 1000);
  gov.on_cycle_end(100000);
  gov.escalate();
  gov.on_cycle_end(100000);
  EXPECT_EQ(gov.state(), GovernorState::kNormal);
  EXPECT_FALSE(gov.take_shed_request());
  EXPECT_EQ(gov.clamp(5), 5);
  EXPECT_EQ(gov.activations(), 0u);
}

TEST(GovernedManager, ClampsOnlyWhileDegrading) {
  struct FixedManager final : QualityManager {
    Decision decide(StateIndex, TimeNs) override {
      Decision d;
      d.quality = 5;
      d.ops = 7;
      return d;
    }
    std::string name() const override { return "fixed"; }
  } inner;

  GovernorConfig cfg;
  OverloadGovernor gov(cfg, 1000);
  GovernedManager governed(inner, gov);
  EXPECT_EQ(governed.name(), "fixed+governed");

  Decision d = governed.decide(0, 0);
  EXPECT_EQ(d.quality, 5);
  EXPECT_EQ(d.ops, 7u);  // passthrough: metadata untouched
  EXPECT_EQ(gov.forced_downgrades(), 0u);

  gov.on_cycle_end(600);  // degrade
  d = governed.decide(0, 0);
  EXPECT_EQ(d.quality, kQmin);
  EXPECT_EQ(d.ops, 7u);
  EXPECT_EQ(gov.forced_downgrades(), 1u);
}

// --- Structured serving failures --------------------------------------------

struct ThrowingTap final : StepSink {
  void on_step(const ExecStep&) override {
    throw std::runtime_error("tap exploded");
  }
};

TEST(ServeError, ThrowingTapIsWrappedWithShardAttribution) {
  ShardedServerSpec spec;
  spec.mix = small_mix_spec(4, 3);
  spec.num_shards = 2;
  spec.num_workers = 1;
  spec.cycles = 4;
  ThrowingTap tap;
  spec.tap = &tap;

  ShardedServer server(spec);
  try {
    server.serve();
    FAIL() << "serve() should have thrown ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.shard(), 0u);  // single worker: shard order, first step
    EXPECT_EQ(e.start_cycle(), 0u);
    EXPECT_NE(std::string(e.what()).find("tap exploded"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("shard 0"), std::string::npos);
  }
}

TEST(ServeError, WorkerThreadExceptionIsWrappedNotTerminal) {
  ShardedServerSpec spec;
  spec.mix = small_mix_spec(6, 13);
  spec.num_shards = 3;
  spec.num_workers = 3;  // the throw happens on a worker thread
  spec.cycles = 4;
  ThrowingTap tap;
  spec.tap = &tap;

  ShardedServer server(spec);
  try {
    server.serve();
    FAIL() << "serve() should have thrown ServeError";
  } catch (const ServeError& e) {
    EXPECT_LT(e.shard(), 3u);
    EXPECT_EQ(e.start_cycle(), 0u);
  }
}

// --- Exit-code taxonomy -----------------------------------------------------

TEST(Verdict, TaxonomyMapsSummariesToExitCodes) {
  RunSummary run;
  EXPECT_EQ(run_verdict(run), RunVerdict::kClean);
  run.deadline_misses = 3;
  EXPECT_EQ(run_verdict(run), RunVerdict::kDeadlineMisses);
  run.degraded_cycles = 1;  // degradation outranks plain misses
  EXPECT_EQ(run_verdict(run), RunVerdict::kDegraded);
  run.degraded_cycles = 0;
  run.degraded_steps = 2;
  EXPECT_EQ(run_verdict(run), RunVerdict::kDegraded);

  ServingSummary serving;
  EXPECT_EQ(serving_verdict(serving), RunVerdict::kClean);
  serving.deadline_misses = 1;
  EXPECT_EQ(serving_verdict(serving), RunVerdict::kDeadlineMisses);
  serving.shed_tasks = 1;  // shedding marks the run degraded
  EXPECT_EQ(serving_verdict(serving), RunVerdict::kDegraded);

  EXPECT_EQ(exit_code(RunVerdict::kClean), 0);
  EXPECT_EQ(exit_code(RunVerdict::kDeadlineMisses), 1);
  EXPECT_EQ(exit_code(RunVerdict::kDegraded), 2);
}

// --- Host watchdog thread ---------------------------------------------------

TEST(WatchdogThread, AlarmsOncePerArmedStaleEpisodeOnly) {
  VirtualWallClock clock;
  RealtimeOptions ro;
  ro.clock = &clock;
  ro.period = 1000;
  WallClockPacer armed_pacer(ro);
  WallClockPacer idle_pacer(ro);
  armed_pacer.armed().store(true, std::memory_order_release);
  // idle_pacer stays disarmed: silence is fine between segments.

  WatchdogThreadConfig cfg;
  cfg.poll_interval_ns = 200'000;    // 0.2 ms
  cfg.hang_timeout_ns = 2'000'000;   // 2 ms
  WatchdogThread watchdog(cfg);
  watchdog.watch(armed_pacer, "armed");
  watchdog.watch(idle_pacer, "idle");
  watchdog.start();
  // Long enough for many polls past the timeout; the armed, heartbeat-
  // silent pacer must alarm exactly once (once per stale episode).
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  watchdog.stop();
  EXPECT_EQ(watchdog.hang_alarms(), 1u);
}

}  // namespace
}  // namespace speedqm

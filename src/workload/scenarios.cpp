#include "workload/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/platform.hpp"
#include "support/contract.hpp"
#include "support/exact_sum.hpp"

namespace speedqm {

const char* to_string(ManagerFlavor flavor) {
  switch (flavor) {
    case ManagerFlavor::kNumeric: return "numeric";
    case ManagerFlavor::kNumericIncremental: return "numeric-incremental";
    case ManagerFlavor::kRegions: return "regions";
    case ManagerFlavor::kRelaxation: return "relaxation";
    case ManagerFlavor::kBatch: return "batch";
  }
  return "?";
}

TimingModel PaperScenario::controller_model(ManagerFlavor flavor) const {
  const TimingModel& tm = workload->timing();
  switch (flavor) {
    case ManagerFlavor::kNumeric: {
      const NumericCallEstimate est(tm.num_actions());
      return inflate_for_overhead(tm, overhead, est);
    }
    case ManagerFlavor::kNumericIncremental: {
      const IncrementalCallEstimate est(tm.num_levels());
      return inflate_for_overhead(tm, overhead, est);
    }
    case ManagerFlavor::kRegions: {
      const RegionCallEstimate est(tm.num_levels());
      return inflate_for_overhead(tm, overhead, est);
    }
    case ManagerFlavor::kRelaxation: {
      const RelaxationCallEstimate est(tm.num_levels(), rho.size());
      return inflate_for_overhead(tm, overhead, est);
    }
    case ManagerFlavor::kBatch: {
      const BatchCallEstimate est(tm.num_levels());
      return inflate_for_overhead(tm, overhead, est);
    }
  }
  SPEEDQM_UNREACHABLE("unreachable manager flavor");
}

namespace {

/// SplitMix64 step — cheap deterministic per-task parameter variation.
std::uint64_t mix_hash(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Rebuilds an app with every deadline cleared except the final one, set
/// to the shared budget: tasks sharing one cycle are all due by its end.
std::unique_ptr<ScheduledApp> with_shared_budget(const ScheduledApp& app,
                                                 TimeNs budget) {
  std::vector<std::string> names;
  std::vector<TimeNs> deadlines(app.size(), kTimePlusInf);
  names.reserve(app.size());
  for (ActionIndex i = 0; i < app.size(); ++i) names.push_back(app.name(i));
  deadlines.back() = budget;
  return std::make_unique<ScheduledApp>(std::move(names), std::move(deadlines));
}

}  // namespace

TaskPool::TaskPool(const MultiTaskMixSpec& spec) : spec_(spec) {
  // Checked in every build: an empty pool or a non-positive budget would
  // serve nothing yet report a clean run.
  if (spec.num_tasks < 1) {
    throw contract_error("TaskPool: num_tasks must be >= 1");
  }
  if (!(std::isfinite(spec.budget_factor) && spec.budget_factor > 0)) {
    throw contract_error("TaskPool: budget_factor must be finite and > 0");
  }
  if (spec.num_levels < 2) {
    throw contract_error("TaskPool: need >= 2 quality levels");
  }
  if (spec.min_task_actions < 2 ||
      spec.min_task_actions > spec.max_task_actions) {
    throw contract_error(
        "TaskPool: task sizes need 2 <= min_task_actions <= max_task_actions");
  }
  if (spec.budget_quality < 0) {
    throw contract_error("TaskPool: budget_quality must be >= 0");
  }
  const Quality budget_q =
      std::min<Quality>(spec.budget_quality, spec.num_levels - 1);

  // Per-task raw workloads: optionally a scaled-down MPEG encoder (real
  // GOP/scene-change dynamics) plus heterogeneous synthetic tasks.
  std::uint64_t rng = spec.seed;

  std::size_t first_synth = 0;
  if (spec.include_mpeg) {
    MpegConfig config;
    config.mb_columns = 3;
    config.mb_rows = 2;
    config.num_frames = static_cast<int>(spec.num_cycles);
    config.num_levels = spec.num_levels;
    config.seed = spec.seed;
    // Provisional per-frame budget; every assembly re-deadlines the app
    // with its shared cycle budget.
    mpeg_ = std::make_unique<MpegWorkload>(config, sec(1));
    apps_.push_back(&mpeg_->app());
    timings_.push_back(&mpeg_->timing());
    traces_.push_back(&mpeg_->traces());
    names_.push_back("mpeg");
    first_synth = 1;
  }
  static const QualityCurve kCurves[] = {
      QualityCurve::kLinear, QualityCurve::kConcave, QualityCurve::kConvex};
  for (std::size_t task = first_synth; task < spec.num_tasks; ++task) {
    SyntheticSpec s;
    const ActionIndex span = spec.max_task_actions - spec.min_task_actions + 1;
    s.num_actions = spec.min_task_actions +
                    static_cast<ActionIndex>(mix_hash(rng) % span);
    s.num_levels = spec.num_levels;
    s.num_cycles = spec.num_cycles;
    s.base_min_ns = us(20 + mix_hash(rng) % 200);
    s.base_max_ns = s.base_min_ns * (2 + static_cast<TimeNs>(mix_hash(rng) % 3));
    s.quality_span = 2.0 + 0.1 * static_cast<double>(mix_hash(rng) % 10);
    s.curve = kCurves[task % 3];
    s.budget_quality = budget_q;
    s.seed = spec.seed * 1000003ULL + task;
    synth_.push_back(std::make_unique<SyntheticWorkload>(s));
    apps_.push_back(&synth_.back()->app());
    timings_.push_back(&synth_.back()->timing());
    traces_.push_back(&synth_.back()->traces());
    names_.push_back("synth" + std::to_string(task));
  }

  // Member controllers take Σ Cav(q) over a mix once and subtract each
  // member's own share; that is exact while the pool's sum stays below
  // 2^53. Cav is non-decreasing in q, so the qmax sum bounds every level.
  std::vector<TimeNs> cav_qmax;
  cav_qmax.reserve(timings_.size());
  for (const TimingModel* timing : timings_) {
    cav_qmax.push_back(timing->total_cav(timing->qmax()));
  }
  checked_exact_sum(cav_qmax);
}

TimeNs TaskPool::budget_for(const std::vector<std::size_t>& members) const {
  const Quality budget_q =
      std::min<Quality>(spec_.budget_quality, spec_.num_levels - 1);
  // Shared cycle budget over the members' average-cost volume (same
  // arithmetic, in member order, as the historical all-tasks computation).
  double total_cav = 0;
  for (const std::size_t task : members) {
    total_cav += static_cast<double>(raw_timing(task).total_cav(budget_q));
  }
  return static_cast<TimeNs>(total_cav * spec_.budget_factor);
}

std::vector<const PolicyEngine*> MemberControllers::engine_ptrs() const {
  std::vector<const PolicyEngine*> out;
  out.reserve(engines.size());
  for (const auto& e : engines) out.push_back(e.get());
  return out;
}

MemberControllers build_member_controllers(
    const TaskPool& pool, const std::vector<std::size_t>& members,
    TimeNs budget, const OverheadModel& overhead) {
  SPEEDQM_REQUIRE(!members.empty(),
                  "build_member_controllers: need at least one member");
  SPEEDQM_REQUIRE(budget > 0, "build_member_controllers: non-positive budget");
  const MultiTaskMixSpec& spec = pool.spec();
  const int nq = spec.num_levels;
  const auto nq_s = static_cast<std::size_t>(nq);
  for (const std::size_t task : members) {
    SPEEDQM_REQUIRE(task < pool.size(),
                    "build_member_controllers: member out of range");
  }

  // Coexistence margin: under the proportional interleave each task
  // contributes one action per round, so between two of task k's actions
  // the platform executes ≈ n_j / n_k actions of every other member j — a
  // per-action margin of Σ_{j≠k} total Cav_j(q) / n_k at k's own quality
  // (assuming coupled quality, like the composed single-knob manager).
  // The mix total is summed once and k's own share subtracted: integer
  // sums below 2^53 (TaskPool's bound) are exact in double, so this is
  // bit for bit the double sum over the other members.
  std::vector<TimeNs> mix_cav(nq_s, 0);
  if (spec.coexistence_margin) {
    for (const std::size_t task : members) {
      const TimingModel& raw = pool.raw_timing(task);
      for (Quality q = 0; q < nq; ++q) {
        mix_cav[static_cast<std::size_t>(q)] += raw.total_cav(q);
      }
    }
  }

  // Controller views: budget-bearing apps, and timing models raised in one
  // pass by the coexistence margin and (optionally) the §2.2.2 overhead
  // margin of one batch manager call per action — both added to Cav and
  // Cwc alike, which keeps the Definition 1 shape. Engines decide per task
  // against the shared clock.
  const BatchCallEstimate estimate(nq);
  MemberControllers out;
  out.members = members;
  out.apps.reserve(members.size());
  out.models.reserve(members.size());
  out.engines.reserve(members.size());
  std::vector<TimeNs> margin(nq_s, 0);
  for (const std::size_t task : members) {
    const TimingModel& raw = pool.raw_timing(task);
    const ActionIndex n = raw.num_actions();
    if (spec.coexistence_margin) {
      for (Quality q = 0; q < nq; ++q) {
        const auto qi = static_cast<std::size_t>(q);
        margin[qi] = static_cast<TimeNs>(
            static_cast<double>(mix_cav[qi] - raw.total_cav(q)) /
                static_cast<double>(n) +
            0.5);
      }
    }
    std::vector<TimeNs> cav(n * nq_s);
    std::vector<TimeNs> cwc(n * nq_s);
    for (ActionIndex i = 0; i < n; ++i) {
      const TimeNs call =
          spec.inflate_overhead ? overhead.cost(estimate.ops(i)) : 0;
      SPEEDQM_REQUIRE(call >= 0, "build_member_controllers: negative margin");
      for (std::size_t q = 0; q < nq_s; ++q) {
        const std::size_t k = i * nq_s + q;
        const auto qq = static_cast<Quality>(q);
        cav[k] = raw.cav_unchecked(i, qq) + margin[q] + call;
        cwc[k] = raw.cwc_unchecked(i, qq) + margin[q] + call;
      }
    }
    out.apps.push_back(with_shared_budget(pool.raw_app(task), budget));
    out.models.push_back(
        std::make_unique<TimingModel>(n, nq, std::move(cav), std::move(cwc)));
    out.engines.push_back(std::make_unique<PolicyEngine>(
        *out.apps.back(), *out.models.back(), PolicyKind::kMixed));
  }
  return out;
}

namespace {

std::vector<std::size_t> all_members(std::size_t count) {
  std::vector<std::size_t> members(count);
  for (std::size_t i = 0; i < count; ++i) members[i] = i;
  return members;
}

}  // namespace

MultiTaskMix::MultiTaskMix(const MultiTaskMixSpec& spec)
    : MultiTaskMix(std::make_shared<TaskPool>(spec),
                   all_members(spec.num_tasks)) {}

MultiTaskMix::MultiTaskMix(std::shared_ptr<TaskPool> pool,
                           std::vector<std::size_t> members, TimeNs budget)
    : pool_(std::move(pool)), overhead_(OverheadModel::server_like()) {
  SPEEDQM_REQUIRE(pool_ != nullptr, "MultiTaskMix: null pool");
  budget_ = budget > 0 ? budget : pool_->budget_for(members);
  controllers_ =
      build_member_controllers(*pool_, members, budget_, overhead_);

  std::vector<TaskSpec> task_specs;
  std::vector<const TraceTimeSource*> traces;
  for (std::size_t slot = 0; slot < members.size(); ++slot) {
    const std::size_t task = members[slot];
    task_specs.push_back(TaskSpec{pool_->name(task),
                                  controllers_.apps[slot].get(),
                                  &pool_->raw_timing(task)});
    traces.push_back(&pool_->trace(task));
  }
  composed_ = std::make_unique<ComposedSystem>(compose_tasks(std::move(task_specs)));
  source_ = std::make_unique<ComposedCyclicSource>(*composed_, std::move(traces));
}

std::vector<const PolicyEngine*> MultiTaskMix::engines() const {
  return controllers_.engine_ptrs();
}

ExecutorOptions MultiTaskMix::executor_options(std::size_t cycles) const {
  ExecutorOptions opts;
  opts.cycles = cycles;
  opts.period = budget_;
  opts.platform = Platform(overhead_);
  opts.carry_slack = true;
  return opts;
}

PaperScenario make_paper_scenario(std::uint64_t seed) {
  PaperScenario s;
  s.config = MpegConfig{};
  s.config.seed = seed;
  s.total_deadline = sec(30);
  s.frame_period = s.total_deadline / s.config.num_frames;
  s.rho = {1, 10, 20, 30, 40, 50};
  s.overhead = OverheadModel::ipod_like();
  s.workload = std::make_unique<MpegWorkload>(s.config, s.frame_period);

  SPEEDQM_ASSERT(s.workload->app().size() == kPaperActions,
                 "paper scenario: action count drifted from 1189");
  SPEEDQM_ASSERT(s.workload->timing().num_levels() == kPaperLevels,
                 "paper scenario: quality level count drifted from 7");
  return s;
}

const std::vector<std::string>& perturbation_scenario_names() {
  static const std::vector<std::string> names = {
      "calm",        "spike",       "jitter",     "stall",
      "overhead-storm", "flaky-shard", "disconnect", "storm"};
  return names;
}

PerturbationScenario make_perturbation_scenario(const std::string& name,
                                                std::size_t cycles,
                                                std::uint64_t seed) {
  SPEEDQM_REQUIRE(cycles >= 8,
                  "make_perturbation_scenario: need >= 8 cycles for windows");
  // Window positions are horizon fractions so one catalogue serves any
  // serving length; every window stays inside [1, cycles).
  const auto at = [cycles](std::size_t num, std::size_t den) {
    return std::max<std::size_t>(1, num * cycles / den);
  };
  const auto span = [cycles, at](std::size_t num, std::size_t den,
                                 std::size_t len_num, std::size_t len_den) {
    const std::size_t begin = at(num, den);
    const std::size_t len =
        std::max<std::size_t>(2, len_num * cycles / len_den);
    return std::make_pair(begin, std::min(cycles, begin + len));
  };

  std::vector<PerturbationWindow> w;
  const bool storm = name == "storm";
  if (name == "calm") {
    return PerturbationScenario(seed, {});
  }
  if (name == "spike" || storm) {
    // The canonical degradation-gate script: two load spikes, the second
    // harsher — actual times pushed toward, then past, Cwc.
    const auto [b1, e1] = span(1, 4, 1, 8);
    const auto [b2, e2] = span(5, 8, 1, 8);
    w.push_back({FaultKind::kLoadSpike, b1, e1, 1.5});
    w.push_back({FaultKind::kLoadSpike, b2, e2, 2.0});
  }
  if (name == "jitter" || storm) {
    const auto [b, e] = span(1, 4, 1, 2);
    w.push_back({FaultKind::kClockJitter, b, e, 100000.0});  // +-100 us
  }
  if (name == "stall" || storm) {
    const auto [b, e] = span(1, 3, 1, 8);
    w.push_back({FaultKind::kStallFrame, b, e, 8.0});
  }
  if (name == "overhead-storm" || storm) {
    const auto [b, e] = span(1, 2, 1, 6);
    w.push_back({FaultKind::kOverheadSpike, b, e, 16.0});
  }
  if (name == "flaky-shard" || storm) {
    // Shard 0 sleeps 2 ms of host time per stalled cycle: wall-clock
    // pressure on the segment barrier, zero effect on simulated results.
    const auto [b, e] = span(1, 4, 1, 4);
    w.push_back({FaultKind::kShardStall, b, e, 2.0, 0});
  }
  if (name == "disconnect" || storm) {
    // Pool task 1 drops out for the middle third and asks to rejoin.
    w.push_back({FaultKind::kDisconnect, at(1, 3), at(2, 3), 1.0, 1});
  }
  SPEEDQM_REQUIRE(!w.empty(),
                  "make_perturbation_scenario: unknown scenario (valid: calm, "
                  "spike, jitter, stall, overhead-storm, flaky-shard, "
                  "disconnect, storm)");
  return PerturbationScenario(seed, std::move(w));
}

}  // namespace speedqm

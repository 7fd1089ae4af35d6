// speedqm_tool — the offline tool chain of the paper's figure 1 as a CLI.
//
// Subcommands:
//   gen      — synthesize the paper's MPEG workload (or a variant) and
//              write its traces to a file
//   compile  — compute the quality-region and control-relaxation tables
//              for a workload and write them next to the traces
//   run      — execute the controlled software against compiled tables,
//              printing the section-4.2 style summary and optional CSVs
//   inspect  — print header information of compiled artifacts
//   multitask, serve — multi-task and sharded serving (see usage())
//
// Each subcommand accepts only its own flags (commands() below); any other
// flag is a usage error (exit 64).
//
// Example session (the paper's experiment end to end):
//   speedqm_tool gen --out mpeg.traces
//   speedqm_tool compile --out mpeg
//   speedqm_tool run --traces mpeg.traces --tables mpeg --manager relaxation
//   speedqm_tool inspect --tables mpeg
#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_engine.hpp"
#include "serve/frontend.hpp"
#include "core/feasibility.hpp"
#include "core/numeric_manager.hpp"
#include "core/region_compiler.hpp"
#include "core/region_manager.hpp"
#include "core/relaxation_manager.hpp"
#include "serve/serving_summary.hpp"
#include "serve/sharded_server.hpp"
#include "sim/metrics.hpp"
#include "sim/realtime.hpp"
#include "sim/trace.hpp"
#include "support/contract.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"
#include "workload/trace_io.hpp"

using namespace speedqm;

namespace {

using ArgMap = std::map<std::string, std::string>;

ArgMap parse_args(int argc, char** argv, int first) {
  ArgMap args;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
      std::exit(64);
    }
    key = key.substr(2);
    std::string value = "1";
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    args[key] = value;
  }
  return args;
}

std::string get(const ArgMap& args, const std::string& key,
                const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

/// Strict numeric flag values (serve, multitask and the shared real-time
/// flags): the whole value must be an unsigned decimal number — no sign,
/// no whitespace, no trailing characters — inside the target type's range.
/// Anything else is a usage error (exit 64), never a wrapped, truncated or
/// defaulted value.
[[noreturn]] void bad_number(const std::string& key, const std::string& value,
                             const char* expected) {
  std::fprintf(stderr, "error: --%s expects %s, got '%s'\n", key.c_str(),
               expected, value.c_str());
  std::exit(64);
}

std::uint64_t parse_uint(const ArgMap& args, const std::string& key,
                         std::uint64_t fallback,
                         std::uint64_t max =
                             std::numeric_limits<std::uint64_t>::max()) {
  const auto it = args.find(key);
  if (it == args.end()) return fallback;
  const std::string& value = it->second;
  const char* const end = value.data() + value.size();
  std::uint64_t out = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0])) ||
      ec != std::errc() || ptr != end || out > max) {
    bad_number(key, value,
               ("a non-negative integer <= " + std::to_string(max)).c_str());
  }
  return out;
}

double parse_real(const ArgMap& args, const std::string& key,
                  double fallback) {
  const auto it = args.find(key);
  if (it == args.end()) return fallback;
  const std::string& value = it->second;
  const char* const end = value.data() + value.size();
  double out = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (value.empty() ||
      !(std::isdigit(static_cast<unsigned char>(value[0])) || value[0] == '.') ||
      ec != std::errc() || ptr != end || !std::isfinite(out)) {
    bad_number(key, value, "a finite non-negative number");
  }
  return out;
}

/// Enum-style flag parsing: the value must be one of `valid`, otherwise the
/// tool exits with a message listing every accepted option (a typo must
/// never silently fall back to a default).
std::string parse_choice(const ArgMap& args, const std::string& key,
                         const std::string& fallback,
                         const std::vector<std::string>& valid,
                         const char* command) {
  const std::string value = get(args, key, fallback);
  if (std::find(valid.begin(), valid.end(), value) != valid.end()) {
    return value;
  }
  std::fprintf(stderr, "error: unknown --%s '%s' for %s (valid:", key.c_str(),
               value.c_str(), command);
  for (std::size_t i = 0; i < valid.size(); ++i) {
    std::fprintf(stderr, "%s%s", i ? "|" : " ", valid[i].c_str());
  }
  std::fprintf(stderr, ")\n");
  std::exit(64);
}

/// --kernel: auto (the widest vector sweep the CPU runs) or scalar.
BatchDecisionEngine::Kernel parse_kernel(const ArgMap& args,
                                         const char* command) {
  return parse_choice(args, "kernel", "auto", {"auto", "scalar"}, command) ==
                 "scalar"
             ? BatchDecisionEngine::Kernel::kScalar
             : BatchDecisionEngine::Kernel::kAuto;
}

/// Shared real-time backend flags (multitask + serve): --clock selects the
/// executor clock backend, --wall-scale the wall-ns-per-sim-ns pacing
/// factor, and the --governor* / --watchdog-retries knobs tune the
/// supervision layered on it (sim/realtime.hpp).
struct RealtimeArgs {
  ClockMode clock = ClockMode::kSim;
  double wall_per_sim = 1.0;
  WatchdogConfig watchdog;
  GovernorConfig governor;
};

RealtimeArgs realtime_from(const ArgMap& args, const char* command) {
  RealtimeArgs rt;
  const std::string clock =
      parse_choice(args, "clock", "sim", {"sim", "wall", "virtual"}, command);
  if (clock == "wall") rt.clock = ClockMode::kWall;
  if (clock == "virtual") rt.clock = ClockMode::kVirtual;
  rt.wall_per_sim = parse_real(args, "wall-scale", 1.0);
  if (rt.clock != ClockMode::kSim && rt.wall_per_sim <= 0.0) {
    std::fprintf(stderr, "error: --wall-scale must be > 0\n");
    std::exit(64);
  }
  rt.governor.enabled =
      parse_choice(args, "governor", "on", {"on", "off"}, command) == "on";
  rt.governor.degrade_budget = parse_real(args, "governor-degrade", 0.5);
  rt.governor.shed_budget = parse_real(args, "governor-shed", 2.0);
  rt.governor.readmit_budget =
      parse_real(args, "governor-readmit", 0.125);
  rt.governor.hysteresis_cycles = static_cast<std::size_t>(
      parse_uint(args, "governor-hysteresis", 4));
  rt.governor.check_cycles = static_cast<std::size_t>(
      parse_uint(args, "governor-check", 8));
  rt.watchdog.max_retries =
      static_cast<int>(parse_uint(
      args, "watchdog-retries", 3, std::numeric_limits<int>::max()));
  return rt;
}

/// --perturb accepts "none" (default) or any catalogue scenario name.
std::vector<std::string> perturb_choices() {
  std::vector<std::string> choices = {"none"};
  const auto& names = perturbation_scenario_names();
  choices.insert(choices.end(), names.begin(), names.end());
  return choices;
}

/// --workload accepts "none" (default) or any registered generator name —
/// parse_choice then rejects typos listing the registry.
std::vector<std::string> workload_choices() {
  std::vector<std::string> choices = {"none"};
  const auto names = workload_generator_names();
  choices.insert(choices.end(), names.begin(), names.end());
  return choices;
}

PaperScenario scenario_from(const ArgMap& args) {
  const auto seed = static_cast<std::uint64_t>(
      parse_uint(args, "seed", 20070326));
  return make_paper_scenario(seed);
}

int cmd_gen(const ArgMap& args) {
  auto scenario = scenario_from(args);
  const std::string out = get(args, "out", "mpeg.traces");
  save_traces_file(scenario.traces(), out);
  std::printf("wrote %zu cycles x %zu actions x %d levels to %s\n",
              scenario.traces().num_cycles(), scenario.app().size(),
              scenario.timing().num_levels(), out.c_str());
  std::printf("contract violations vs analytic model: %zu\n",
              scenario.traces().count_contract_violations(scenario.timing()));
  return 0;
}

int cmd_compile(const ArgMap& args) {
  auto scenario = scenario_from(args);
  const std::string out = get(args, "out", "mpeg");
  const std::string flavor_name = parse_choice(
      args, "manager", "relaxation",
      {"numeric", "numeric-incremental", "regions", "relaxation", "batch"},
      "compile");
  ManagerFlavor flavor = ManagerFlavor::kRelaxation;
  if (flavor_name == "numeric") flavor = ManagerFlavor::kNumeric;
  if (flavor_name == "numeric-incremental") {
    flavor = ManagerFlavor::kNumericIncremental;
  }
  if (flavor_name == "regions") flavor = ManagerFlavor::kRegions;
  if (flavor_name == "batch") flavor = ManagerFlavor::kBatch;

  const TimingModel tm = scenario.controller_model(flavor);
  const PolicyEngine engine(scenario.app(), tm);

  const auto feas = analyze_feasibility(engine);
  std::printf("feasibility: %s (qmin slack %s, max start quality q%d)\n",
              feas.feasible ? "ok" : "INFEASIBLE",
              format_time(feas.qmin_slack).c_str(), feas.max_start_quality);
  if (!feas.feasible) {
    std::printf("needs %s more budget on every deadline\n",
                format_time(feas.required_extra_budget).c_str());
    return 1;
  }

  const auto stats = RegionCompiler::measure(engine, scenario.rho);
  const auto regions = RegionCompiler::compile_regions(engine);
  const auto relax =
      RegionCompiler::compile_relaxation(engine, regions, scenario.rho);
  RegionCompiler::save_regions_file(regions, out + ".regions");
  RegionCompiler::save_relaxation_file(relax, out + ".relax");
  std::printf("compiled (model inflated for the %s manager's overhead):\n",
              to_string(flavor));
  std::printf("  %s.regions : %zu integers (%zu bytes)\n", out.c_str(),
              stats.region_integers, stats.region_bytes);
  std::printf("  %s.relax   : %zu integers (%zu bytes)\n", out.c_str(),
              stats.relaxation_integers, stats.relaxation_bytes);
  std::printf("  compile time: %.3f ms\n", stats.compile_seconds * 1e3);
  return 0;
}

int cmd_run(const ArgMap& args) {
  auto scenario = scenario_from(args);
  const std::string tables = get(args, "tables", "mpeg");
  const std::string traces_path = get(args, "traces", "");
  const std::string flavor = parse_choice(
      args, "manager", "relaxation",
      {"numeric", "numeric-warm", "numeric-incremental", "regions",
       "relaxation", "batch"},
      "run");
  const std::string csv = get(args, "csv", "");

  // Content: regenerate from seed or replay a trace file.
  TraceTimeSource traces =
      traces_path.empty() ? std::move(scenario.traces())
                          : load_traces_file(traces_path);

  const auto regions = RegionCompiler::load_regions_file(tables + ".regions");
  const auto relax = RegionCompiler::load_relaxation_file(tables + ".relax");

  const TimingModel tm_numeric = scenario.controller_model(ManagerFlavor::kNumeric);
  const PolicyEngine numeric_engine(scenario.app(), tm_numeric);
  NumericManager numeric(numeric_engine);
  NumericManager numeric_warm(numeric_engine, NumericManager::Strategy::kWarm);
  const TimingModel tm_incremental =
      scenario.controller_model(ManagerFlavor::kNumericIncremental);
  const PolicyEngine incremental_engine(scenario.app(), tm_incremental);
  NumericManager numeric_incremental(incremental_engine,
                                     NumericManager::Strategy::kIncremental);
  RegionManager region_mgr(regions);
  RelaxationManager relax_mgr(regions, relax);
  // Batched engine, degenerate T = 1 composition of the paper task.
  const TimingModel tm_batch = scenario.controller_model(ManagerFlavor::kBatch);
  const PolicyEngine batch_engine(scenario.app(), tm_batch);
  const ComposedSystem composed_single = compose_tasks(
      {TaskSpec{"paper", &scenario.app(), &scenario.timing()}});
  BatchMultiTaskManager batch_mgr(composed_single, {&batch_engine});

  QualityManager* manager = nullptr;
  if (flavor == "numeric") manager = &numeric;
  if (flavor == "numeric-warm") manager = &numeric_warm;
  if (flavor == "numeric-incremental") manager = &numeric_incremental;
  if (flavor == "regions") manager = &region_mgr;
  if (flavor == "relaxation") manager = &relax_mgr;
  if (flavor == "batch") manager = &batch_mgr;
  if (!manager) {
    std::fprintf(stderr, "error: unknown manager '%s' for run\n", flavor.c_str());
    return 64;
  }

  ExecutorOptions opts;
  opts.cycles = static_cast<std::size_t>(scenario.config.num_frames);
  opts.period = scenario.frame_period;
  opts.platform = Platform(scenario.overhead);
  const auto run = run_cyclic(scenario.app(), *manager, traces, opts);
  const auto summary = summarize_run(manager->name(), run);

  std::printf("manager        : %s\n", summary.manager.c_str());
  std::printf("mean quality   : %.3f\n", summary.mean_quality);
  std::printf("overhead       : %.2f %%\n", summary.overhead_pct);
  std::printf("manager calls  : %zu / %zu actions\n", summary.manager_calls,
              run.steps.size());
  std::printf("deadline misses: %zu\n", summary.deadline_misses);
  std::printf("quality stddev : %.3f\n", summary.smoothness.quality_stddev);
  std::printf("total time     : %.3f s (budget %.3f s)\n", summary.total_time_s,
              to_sec(scenario.total_deadline));
  if (!csv.empty()) {
    write_step_trace_csv(run, csv + "_steps.csv");
    write_cycle_trace_csv(run, csv + "_cycles.csv");
    std::printf("wrote %s_steps.csv and %s_cycles.csv\n", csv.c_str(),
                csv.c_str());
  }
  return exit_code(run_verdict(summary));
}

// Heterogeneous multi-task serving: T concurrent tasks (scaled-down MPEG +
// synthetic mixes) under one batched or sequential multi-task manager, with
// optional streaming replay (no per-step records, O(1) memory per step).
int cmd_multitask(const ArgMap& args) {
  MultiTaskMixSpec spec;
  spec.num_tasks = static_cast<std::size_t>(parse_uint(args, "tasks", 8));
  spec.seed = static_cast<std::uint64_t>(
      parse_uint(args, "seed", 20070730));
  spec.budget_factor = parse_real(args, "factor", 1.10);
  const auto cycles =
      static_cast<std::size_t>(parse_uint(args, "cycles", 64));
  // The executor accepts a zero horizon and would report a clean run of
  // nothing; like serve, a run must cover at least one cycle.
  if (cycles == 0) throw contract_error("multitask: --cycles must be >= 1");
  const std::string flavor = parse_choice(
      args, "manager", "batch", {"batch", "batch-incremental", "sequential"},
      "multitask");
  const bool stream = args.count("stream") > 0;
  const std::string arena = parse_choice(args, "arena", "flat",
                                         {"flat", "compressed"}, "multitask");
  const ArenaLayout layout =
      arena == "compressed" ? ArenaLayout::kCompressed : ArenaLayout::kFlat;
  const BatchDecisionEngine::Kernel kernel = parse_kernel(args, "multitask");
  const std::string perturb_name =
      parse_choice(args, "perturb", "none", perturb_choices(), "multitask");
  PerturbationScenario perturb;
  if (perturb_name != "none") {
    perturb = make_perturbation_scenario(perturb_name, cycles);
  }
  const std::string workload_name =
      parse_choice(args, "workload", "none", workload_choices(), "multitask");
  const RealtimeArgs rt = realtime_from(args, "multitask");

  MultiTaskMix mix(spec);
  const auto engines = mix.engines();
  // Construct only the selected manager: each one compiles its own tables
  // or lane forests, O(sum n_tau * |Q|) work and memory apiece.
  std::unique_ptr<QualityManager> manager;
  if (flavor == "batch") {
    manager = std::make_unique<BatchMultiTaskManager>(
        mix.composed(), engines, BatchDecisionEngine::Mode::kTabled, layout,
        kernel);
  } else if (flavor == "batch-incremental") {
    if (layout != ArenaLayout::kFlat) {
      std::fprintf(stderr, "error: --arena compressed needs a tabled manager "
                           "(batch-incremental stores no tables)\n");
      return 64;
    }
    manager = std::make_unique<BatchMultiTaskManager>(
        mix.composed(), engines, BatchDecisionEngine::Mode::kIncremental);
  } else if (flavor == "sequential") {
    manager = std::make_unique<SequentialMultiTaskManager>(
        mix.composed(), engines, BatchDecisionEngine::Mode::kTabled, layout);
  } else {
    std::fprintf(stderr, "error: unknown manager '%s' for multitask\n",
                 flavor.c_str());
    return 64;
  }

  // Streaming sink: the summary accumulator plus an online per-task
  // quality fold (provenance via the composition's origin mapping).
  struct PerTaskSink final : StepSink {
    RunSummaryAccumulator acc;
    const ComposedSystem* system;
    std::vector<double> sum;
    std::vector<std::size_t> count;
    PerTaskSink(std::string name, const ComposedSystem& s)
        : acc(std::move(name)), system(&s), sum(s.num_tasks(), 0.0),
          count(s.num_tasks(), 0) {}
    void on_step(const ExecStep& step) override {
      acc.on_step(step);
      const TaskRef& ref = system->origin(step.action);
      sum[ref.task] += static_cast<double>(step.quality);
      ++count[ref.task];
    }
    void on_cycle(const CycleStats& cycle) override { acc.on_cycle(cycle); }
  } sink(manager->name(), mix.composed());

  ExecutorOptions opts = mix.executor_options(cycles);
  opts.retain_steps = !stream;
  opts.retain_cycles = !stream;
  opts.sink = &sink;

  // Optional generator-driven content: route the frame-cost stream through
  // the workload registry instead of reading the mix's source directly
  // (with "mix" this is the differential-gated adapter path — decisions and
  // ops are bit-identical to the direct read).
  std::unique_ptr<WorkloadGenerator> workload_gen;
  std::unique_ptr<GeneratorTimeSource> workload_source;
  CyclicTimeSource* base_source = &mix.source();
  if (workload_name != "none") {
    WorkloadSpec wspec;
    wspec.cycles = cycles;
    wspec.mix = spec;
    parse_workload_params(get(args, "workload-spec", ""), wspec);
    if (wspec.cycles != cycles) {
      std::fprintf(stderr,
                   "error: --workload-spec cycles=%zu conflicts with the "
                   "--cycles %zu run horizon; drop the override or set "
                   "--cycles to match\n",
                   wspec.cycles, cycles);
      return 64;
    }
    workload_gen = make_workload_generator(workload_name);
    if (workload_gen->emits_arrivals()) {
      std::fprintf(stderr,
                   "error: --workload %s emits arrivals; multitask needs a "
                   "frame-cost generator (use `serve --workload %s`)\n",
                   workload_name.c_str(), workload_name.c_str());
      return 64;
    }
    workload_gen->open(wspec);
    workload_source = std::make_unique<GeneratorTimeSource>(
        *workload_gen, cycles, mix.composed().app().size(),
        mix.composed().num_levels());
    base_source = workload_source.get();
    std::printf("workload       : %s generator (%zu resident bytes)\n",
                workload_gen->name().c_str(), workload_gen->memory_bytes());
  }

  // Optional fault injection: the decorator stack wraps the chosen
  // manager/source/platform; with --perturb none nothing is installed.
  std::unique_ptr<PerturbationRig> rig;
  QualityManager* run_manager = manager.get();
  CyclicTimeSource* run_source = base_source;
  if (!perturb.empty()) {
    // On a real-time backend, kShardStall windows cost budget, so their
    // misses are attributed as stress like any other fault kind.
    sink.acc.track_stress_windows(
        perturb.stress_ranges(rt.clock != ClockMode::kSim));
    rig = std::make_unique<PerturbationRig>(perturb, 0, *manager, *base_source,
                                            opts.platform, cycles);
    opts.platform = rig->platform();
    run_manager = &rig->manager();
    run_source = &rig->source();
    std::printf("perturbation   : %s (%s)\n", perturb_name.c_str(),
                perturb.describe().c_str());
  }

  // Real-time backend: pace the executor thread against a backend clock.
  // The governor clamp wraps outermost — above any perturbed manager — so
  // it bounds what the executor actually runs (mirrors serve's shards).
  std::unique_ptr<WallClock> wall;
  std::unique_ptr<WallClockPacer> pacer;
  std::unique_ptr<GovernedManager> governed;
  if (rt.clock != ClockMode::kSim) {
    if (rt.clock == ClockMode::kVirtual) {
      wall = std::make_unique<VirtualWallClock>();
    } else {
      wall = std::make_unique<SteadyWallClock>();
    }
    RealtimeOptions ro;
    ro.clock = wall.get();
    ro.wall_per_sim = rt.wall_per_sim;
    ro.period = opts.period;
    ro.watchdog = rt.watchdog;
    ro.governor = rt.governor;
    pacer = std::make_unique<WallClockPacer>(ro);
    // Multitask runs as "shard 0": scripted shard stalls targeting it (or
    // every shard) become backend-clock stalls, magnitude in ms per cycle.
    std::vector<StallWindow> stalls;
    for (const PerturbationWindow& w :
         perturb.windows_of(FaultKind::kShardStall)) {
      if (w.target != PerturbationWindow::kAllTargets && w.target != 0) {
        continue;
      }
      StallWindow s;
      s.begin_cycle = w.begin_cycle;
      s.end_cycle = w.end_cycle;
      s.wall_ns = static_cast<std::int64_t>(std::llround(w.magnitude * 1e6));
      if (s.wall_ns > 0) stalls.push_back(s);
    }
    pacer->set_stall_windows(std::move(stalls));
    governed = std::make_unique<GovernedManager>(*run_manager,
                                                 pacer->governor());
    run_manager = governed.get();
    opts.pacer = pacer.get();
    std::printf("clock          : %s (x%.3g wall/sim, governor %s)\n",
                to_string(rt.clock), rt.wall_per_sim,
                rt.governor.enabled ? "on" : "off");
  }

  const auto run =
      run_cyclic(mix.composed().app(), *run_manager, *run_source, opts);
  const auto summary = sink.acc.finish();

  std::printf("tasks          : %zu (%s), %zu composite actions/cycle\n",
              mix.num_tasks(), spec.include_mpeg ? "mpeg + synthetic" : "synthetic",
              mix.composed().app().size());
  std::printf("mode           : %s\n", stream ? "streaming (no per-step records)"
                                              : "retained");
  std::printf("manager        : %s\n", summary.manager.c_str());
  std::printf("cycle budget   : %s\n", format_time(mix.budget()).c_str());
  std::printf("cycles         : %zu (%zu steps)\n", cycles, summary.total_steps);
  std::printf("mean quality   : %.3f\n", summary.mean_quality);
  std::printf("overhead       : %.2f %%\n", summary.overhead_pct);
  std::printf("deadline misses: %zu\n", summary.deadline_misses);
  if (summary.stress_cycles > 0) {
    std::printf("stress cycles  : %zu (%zu misses), recovery %zu (%zu misses)\n",
                summary.stress_cycles, summary.misses_in_stress,
                summary.recovery_cycles, summary.misses_in_recovery);
  }
  std::printf("quality stddev : %.3f\n", summary.smoothness.quality_stddev);
  if (pacer) {
    std::printf("realtime       : max lag %s, %zu overrun steps, "
                "%zu stalled cycles\n",
                format_time(summary.max_lag_ns).c_str(),
                summary.overrun_steps, pacer->stalled_cycles());
    std::printf("governor       : %zu activations, %zu forced downgrades, "
                "%zu degraded cycles, %zu watchdog escalations\n",
                pacer->governor().activations(),
                pacer->governor().forced_downgrades(),
                summary.degraded_cycles, pacer->watchdog().escalations());
  }
  std::printf("table memory   : %zu bytes\n", manager->memory_bytes());
  std::printf("retained steps : %zu\n", run.steps.size());
  for (std::size_t task = 0; task < mix.num_tasks(); ++task) {
    std::printf("  %-10s mean quality %.3f over %zu actions\n",
                mix.composed().task_name(task).c_str(),
                sink.count[task] ? sink.sum[task] /
                                       static_cast<double>(sink.count[task])
                                 : 0.0,
                sink.count[task]);
  }
  return exit_code(run_verdict(summary));
}

/// Default initial pool share when a script (--arrivals, --workload) adds
/// tasks mid-run: hold back ~1/4 of the pool so the joins have tasks to add.
std::size_t scripted_initial_tasks(std::size_t pool_tasks) {
  if (pool_tasks == 0) throw contract_error("serve: --tasks must be >= 1");
  return pool_tasks - std::min(pool_tasks / 4 + 1, pool_tasks - 1);
}

// Sharded multi-clock serving: the task pool partitioned across S shards
// (each with its own platform clock, batched engine and streaming
// executor) under admission control, with optional mid-run task
// arrivals/leaves.
int cmd_serve(const ArgMap& args) {
  ShardedServerSpec spec;
  spec.mix.num_tasks =
      static_cast<std::size_t>(parse_uint(args, "tasks", 32));
  spec.mix.seed =
      static_cast<std::uint64_t>(parse_uint(args, "seed", 20070730));
  spec.mix.budget_factor = parse_real(args, "factor", 1.10);
  spec.num_shards =
      static_cast<std::size_t>(parse_uint(args, "shards", 4));
  spec.num_workers =
      static_cast<std::size_t>(parse_uint(args, "workers", 0));
  spec.cycles = static_cast<std::size_t>(parse_uint(args, "cycles", 64));
  const std::string arena =
      parse_choice(args, "arena", "flat", {"flat", "compressed"}, "serve");
  spec.layout = arena == "compressed" ? ArenaLayout::kCompressed
                                      : ArenaLayout::kFlat;
  spec.kernel = parse_kernel(args, "serve");
  const std::string placement = parse_choice(
      args, "placement", "best-fit", {"best-fit", "most-slack"}, "serve");
  spec.placement = placement == "most-slack" ? PlacementPolicy::kMostSlack
                                             : PlacementPolicy::kBestFit;
  const std::string perturb_name =
      parse_choice(args, "perturb", "none", perturb_choices(), "serve");
  if (perturb_name != "none") {
    spec.perturb = make_perturbation_scenario(perturb_name, spec.cycles);
    std::printf("perturbation   : %s (%s)\n", perturb_name.c_str(),
                spec.perturb.describe().c_str());
  }
  const RealtimeArgs rt = realtime_from(args, "serve");
  spec.clock = rt.clock;
  spec.wall_per_sim = rt.wall_per_sim;
  spec.watchdog = rt.watchdog;
  spec.governor = rt.governor;
  if (spec.clock != ClockMode::kSim) {
    std::printf("clock          : %s (x%.3g wall/sim, governor %s)\n",
                to_string(spec.clock), spec.wall_per_sim,
                spec.governor.enabled ? "on" : "off");
  }

  const std::string workload_name =
      parse_choice(args, "workload", "none", workload_choices(), "serve");
  const auto arrivals =
      static_cast<std::size_t>(parse_uint(args, "arrivals", 0));
  if (workload_name != "none" && arrivals > 0) {
    std::fprintf(stderr, "error: --workload and --arrivals both script the "
                         "session churn; pick one\n");
    return 64;
  }
  ArrivalSchedule schedule;
  if (workload_name != "none") {
    WorkloadSpec wspec;
    wspec.seed = spec.mix.seed ^ 0x5e;
    wspec.cycles = spec.cycles;
    wspec.pool_tasks = spec.mix.num_tasks;
    wspec.initial_tasks = scripted_initial_tasks(spec.mix.num_tasks);
    if (args.count("initial") > 0) {
      wspec.initial_tasks =
          static_cast<std::size_t>(parse_uint(args, "initial", 0));
    }
    const std::size_t cli_initial = wspec.initial_tasks;
    parse_workload_params(get(args, "workload-spec", ""), wspec);
    // The generated script feeds the server's shard membership and
    // per-task source lookups, so its geometry must be the served one:
    // an overridden pool would script joins for task ids the mix does
    // not hold.
    if (wspec.pool_tasks != spec.mix.num_tasks) {
      std::fprintf(stderr,
                   "error: --workload-spec pool=%zu does not match the "
                   "served task pool (--tasks %zu); size the pool with "
                   "--tasks instead\n",
                   wspec.pool_tasks, spec.mix.num_tasks);
      return 64;
    }
    if (args.count("initial") > 0 && wspec.initial_tasks != cli_initial) {
      std::fprintf(stderr,
                   "error: --initial %zu conflicts with --workload-spec "
                   "initial=%zu; pick one\n",
                   cli_initial, wspec.initial_tasks);
      return 64;
    }
    if (wspec.initial_tasks > wspec.pool_tasks) {
      std::fprintf(stderr,
                   "error: initial task count %zu exceeds the %zu-task "
                   "pool\n",
                   wspec.initial_tasks, wspec.pool_tasks);
      return 64;
    }
    if (wspec.cycles != spec.cycles) {
      std::fprintf(stderr,
                   "error: --workload-spec cycles=%zu conflicts with the "
                   "--cycles %zu serving horizon; drop the override or set "
                   "--cycles to match\n",
                   wspec.cycles, spec.cycles);
      return 64;
    }
    auto gen = make_workload_generator(workload_name);
    if (!gen->emits_arrivals()) {
      std::fprintf(stderr,
                   "error: --workload %s streams frame costs; serve needs an "
                   "arrival generator (use `multitask --workload %s`)\n",
                   workload_name.c_str(), workload_name.c_str());
      return 64;
    }
    gen->open(wspec);
    spec.initial_tasks = wspec.initial_tasks;
    schedule = drain_arrival_schedule(*gen);
    std::printf("workload       : %s generator (seed %llu)\n",
                gen->name().c_str(),
                static_cast<unsigned long long>(wspec.seed));
    std::printf("arrival script : %s\n", schedule.describe().c_str());
  } else if (arrivals > 0) {
    spec.initial_tasks = scripted_initial_tasks(spec.mix.num_tasks);
    spec.initial_tasks = static_cast<std::size_t>(
        parse_uint(args, "initial", spec.initial_tasks));
    schedule = make_arrival_schedule(spec.mix.num_tasks, spec.initial_tasks,
                                     spec.cycles, arrivals, spec.mix.seed ^ 0x5e);
    std::printf("arrival script : %s\n", schedule.describe().c_str());
  } else if (args.count("initial") > 0) {
    spec.initial_tasks =
        static_cast<std::size_t>(parse_uint(args, "initial", 0));
  }

  const std::size_t frontend_producers =
      static_cast<std::size_t>(parse_uint(args, "frontend", 0));
  std::unique_ptr<ServeFrontend> frontend;
  if (frontend_producers > 0) {
    // Route the arrival script through the ingest front-end: N producer
    // threads enqueue the script's events as requests (order ticket =
    // script index, so the drained replay matches the schedule's stable
    // within-cycle order) and the server gets an EMPTY schedule. The
    // result is differential-gated bit-identical to the pre-drained path
    // for any producer count.
    const std::vector<ArrivalEvent> events = schedule.events();
    frontend = std::make_unique<ServeFrontend>(
        std::max<std::size_t>(FrontendQueue::kDefaultCapacity,
                              2 * events.size()));
    std::vector<std::thread> producers;
    producers.reserve(frontend_producers);
    for (std::size_t p = 0; p < frontend_producers; ++p) {
      producers.emplace_back([&events, &frontend, p, frontend_producers] {
        std::uint32_t seq = 0;
        for (std::size_t i = p; i < events.size(); i += frontend_producers) {
          FrontendRequest r;
          r.cycle = events[i].cycle;
          r.task = events[i].task;
          r.kind = events[i].join ? RequestKind::kJoin : RequestKind::kLeave;
          r.order = i;
          r.producer = static_cast<std::uint32_t>(p);
          r.producer_seq = seq++;
          // The ring is sized to hold the whole script; backpressure here
          // would mean a geometry bug, so spin-yield defensively.
          while (frontend->submit(r) != PushResult::kAccepted) {
            std::this_thread::yield();
          }
        }
      });
    }
    for (std::thread& t : producers) t.join();
    std::printf("front-end      : %zu producers, %zu requests, ring "
                "capacity %zu\n",
                frontend_producers, events.size(),
                frontend->queue().capacity());
    schedule = ArrivalSchedule{};
    spec.frontend = frontend.get();
  }

  ShardedServer server(spec, std::move(schedule));
  std::printf("pool           : %zu tasks, shard budget %s x %zu shards, "
              "%zu cycles\n",
              server.pool().size(), format_time(server.shard_budget()).c_str(),
              server.num_shards(), spec.cycles);
  const ServingSummary summary = server.serve();
  std::printf("%s", summary.render().c_str());

  const std::string slo_out = get(args, "slo-out", "");
  if (!slo_out.empty()) {
    SloArtifactOptions slo;
    slo.target_miss_rate = parse_real(args, "slo-target", 0.05);
    if (!write_slo_artifact(slo_out, summary, slo)) {
      std::fprintf(stderr, "error: cannot write SLO artifact to %s\n",
                   slo_out.c_str());
      return 74;  // EX_IOERR
    }
    std::printf("slo artifact   : %s (schema %s v%d)\n", slo_out.c_str(),
                kSloArtifactSchema, kSloArtifactVersion);
  }
  return exit_code(serving_verdict(summary));
}

int cmd_inspect(const ArgMap& args) {
  const std::string tables = get(args, "tables", "mpeg");
  const auto regions = RegionCompiler::load_regions_file(tables + ".regions");
  std::printf("%s.regions: %zu states x %d levels = %zu integers (%zu bytes)\n",
              tables.c_str(), regions.num_states(), regions.num_levels(),
              regions.num_integers(), regions.memory_bytes());
  const auto relax = RegionCompiler::load_relaxation_file(tables + ".relax");
  std::printf("%s.relax  : rho = {", tables.c_str());
  for (std::size_t i = 0; i < relax.rho().size(); ++i) {
    std::printf("%s%d", i ? ", " : "", relax.rho()[i]);
  }
  std::printf("}, %zu integers (%zu bytes)\n", relax.num_integers(),
              relax.memory_bytes());
  // Sample borders at the start, middle and end of the schedule.
  for (const StateIndex s :
       {StateIndex{0}, regions.num_states() / 2, regions.num_states() - 1}) {
    std::printf("  state %4zu:", s);
    for (Quality q = 0; q < regions.num_levels(); ++q) {
      std::printf(" td(q%d)=%s", q, format_time(regions.td(s, q)).c_str());
    }
    std::printf("\n");
  }
  return 0;
}

void usage() {
  std::printf(
      "speedqm_tool — offline tool chain for speed-diagram quality managers\n"
      "\n"
      "usage: speedqm_tool <command> [--flags]\n"
      "  gen      --out FILE [--seed N]\n"
      "  compile  --out PREFIX [--seed N]\n"
      "           [--manager numeric|numeric-incremental|regions|relaxation]\n"
      "  run      --tables PREFIX [--traces FILE] [--seed N]\n"
      "           [--manager numeric|numeric-warm|numeric-incremental|\n"
      "                      regions|relaxation|batch] [--csv PREFIX]\n"
      "  multitask [--tasks N] [--cycles N] [--seed N] [--factor F]\n"
      "           [--manager batch|batch-incremental|sequential] [--stream]\n"
      "           [--arena flat|compressed] [--kernel auto|scalar]\n"
      "           [--perturb NAME]\n"
      "           [--workload mix|trace-replay] [--workload-spec K=V,...]\n"
      "           [--clock sim|wall|virtual] [real-time flags]\n"
      "  serve    [--tasks N] [--shards S] [--workers W] [--cycles N]\n"
      "           [--arrivals N] [--initial K] [--seed N] [--factor F]\n"
      "           [--placement best-fit|most-slack] [--arena flat|compressed]\n"
      "           [--kernel auto|scalar] [--perturb NAME]\n"
      "           [--workload poisson|bursty|diurnal|checkpoint]\n"
      "           [--workload-spec K=V,...]\n"
      "           [--frontend P] [--slo-out FILE] [--slo-target F]\n"
      "           [--clock sim|wall|virtual] [real-time flags]\n"
      "  inspect  --tables PREFIX\n"
      "\n"
      "--clock selects the executor clock backend (sim/realtime.hpp):\n"
      "  sim      simulated platform clock, the historical default\n"
      "  wall     real time — host stalls cost budget; watchdog + overload\n"
      "           governor supervision is live\n"
      "  virtual  the real-time backend on a deterministic noiseless clock\n"
      "           (bit-identical to sim when no scenario injects stalls)\n"
      "real-time flags: --wall-scale F (wall ns per simulated ns, default 1.0;\n"
      "small values time-compress soaks), --governor on|off,\n"
      "--governor-degrade F, --governor-shed F, --governor-readmit F\n"
      "(lag thresholds as period fractions), --governor-hysteresis N,\n"
      "--governor-check N (cycles), --watchdog-retries N\n"
      "(see docs/architecture.md for the governor state machine)\n"
      "\n"
      "exit codes: 0 = clean, 1 = deadline misses, 2 = degraded (the overload\n"
      "governor intervened: forced downgrades over whole cycles or task\n"
      "shedding); usage and runtime errors exit >= 64 (sysexits style): an\n"
      "unknown flag, a malformed value or a zero --tasks/--shards/--cycles/\n"
      "--factor exits 64\n"
      "\n"
      "--perturb NAME applies a seeded fault scenario from the catalogue:\n"
      "  none|calm|spike|jitter|stall|overhead-storm|flaky-shard|disconnect|"
      "storm\n"
      "(same scenario + seed => identical results; see docs/scenarios.md)\n"
      "\n"
      "--workload NAME streams content or session churn from the workload\n"
      "generator registry (workload/generator.hpp): frame-cost generators\n"
      "(mix, trace-replay) drive multitask; arrival generators (poisson,\n"
      "bursty, diurnal, checkpoint) script serve's joins/leaves.\n"
      "--workload-spec sets generator parameters, e.g.\n"
      "  serve --workload bursty --workload-spec rate=3,burst-len=4,burst=6\n"
      "  multitask --workload trace-replay --workload-spec trace=f.bin\n"
      "(unknown generator names and spec keys are rejected; see\n"
      "docs/scenarios.md for the full key list)\n"
      "\n"
      "--frontend P routes serve's arrival script through the lock-free\n"
      "MPSC ingest front-end (serve/frontend.hpp) from P producer threads —\n"
      "bit-identical decisions to the pre-drained script for any P.\n"
      "--slo-out FILE writes the versioned SLO run artifact (decision\n"
      "latency p50/p99/p999, deadline-miss SLO vs --slo-target F (default\n"
      "0.05), queue-wait and admission-price histograms); the artifact's\n"
      "deterministic section byte-compares across runs, its wall section\n"
      "does not (see docs/scenarios.md for the schema)\n");
}

struct Command {
  const char* name;
  int (*run)(const ArgMap&);
  /// Every flag the subcommand reads; main() rejects any other.
  std::vector<std::string> flags;
};

const std::vector<Command>& commands() {
  // realtime_from's flags, shared by multitask and serve.
  const std::vector<std::string> realtime = {
      "clock", "wall-scale", "governor", "governor-degrade",
      "governor-shed", "governor-readmit", "governor-hysteresis",
      "governor-check", "watchdog-retries"};
  const auto with_realtime = [&realtime](std::vector<std::string> flags) {
    flags.insert(flags.end(), realtime.begin(), realtime.end());
    return flags;
  };
  static const std::vector<Command> kCommands = {
      {"gen", cmd_gen, {"out", "seed"}},
      {"compile", cmd_compile, {"out", "seed", "manager"}},
      {"run", cmd_run, {"tables", "traces", "seed", "manager", "csv"}},
      {"multitask", cmd_multitask,
       with_realtime({"tasks", "cycles", "seed", "factor", "manager",
                      "stream", "arena", "kernel", "perturb", "workload",
                      "workload-spec"})},
      {"serve", cmd_serve,
       with_realtime({"tasks", "shards", "workers", "cycles", "arrivals",
                      "initial", "seed", "factor", "placement", "arena",
                      "kernel", "perturb", "workload", "workload-spec",
                      "frontend", "slo-out", "slo-target"})},
      {"inspect", cmd_inspect, {"tables"}},
  };
  return kCommands;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 64;
  }
  const std::string name = argv[1];
  const std::vector<Command>& table = commands();
  const auto command =
      std::find_if(table.begin(), table.end(),
                   [&name](const Command& c) { return name == c.name; });
  if (command == table.end()) {
    usage();
    return 64;
  }
  const ArgMap args = parse_args(argc, argv, 2);
  for (const auto& entry : args) {
    if (std::find(command->flags.begin(), command->flags.end(),
                  entry.first) == command->flags.end()) {
      std::fprintf(stderr, "error: unknown flag --%s for %s (run "
                           "speedqm_tool without arguments for usage)\n",
                   entry.first.c_str(), command->name);
      return 64;
    }
  }
  try {
    return command->run(args);
  } catch (const contract_error& e) {
    // A rejected spec (zero shards, tasks or cycles, a non-positive
    // budget factor) is a usage error, like a malformed flag value.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 64;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 65;
  }
}

// Experiment W1 — pluggable workload-generator API (workload/generator.hpp).
//
// Three gated claims:
//   1. Replay determinism: every registered backend re-emits a bit-identical
//      event script across rewinds and across freshly opened instances, and
//      the arrival backends drive ShardedServer to identical summaries on
//      repeated serves. The JSON this bench writes contains only
//      simulated-time cells, so CI re-runs the binary twice and
//      byte-compares the files.
//   2. Adapter bit-identity: the "mix" generator driving the executor via
//      GeneratorTimeSource produces the same decisions AND the same
//      Decision.ops as the same manager reading MultiTaskMix's source
//      directly — clocks, summaries and quality streams all match.
//   3. Streaming shape: trace replay holds O(one frame) resident bytes
//      regardless of recorded trace length (64x longer file, equal
//      footprint).
//
// Writes BENCH_workload.json (path overridable via argv[1] for the CI
// determinism double-run). Every cell is simulated platform time per step
// and decision ops — fully deterministic, machine-portable, byte-diffable.
#include <cstdio>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "serve/sharded_server.hpp"
#include "sim/metrics.hpp"
#include "workload/generator.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_io.hpp"

#include "bench_common.hpp"

using namespace speedqm;
using namespace speedqm::bench;

namespace {

constexpr std::size_t kPoolTasks = 10;
constexpr std::size_t kCycles = 32;
constexpr std::uint64_t kSeed = 20070808;

MultiTaskMixSpec pool_spec() {
  MultiTaskMixSpec spec;
  spec.num_tasks = kPoolTasks;
  spec.seed = kSeed;
  spec.num_cycles = 8;
  return spec;
}

WorkloadSpec arrival_spec() {
  WorkloadSpec spec;
  spec.seed = kSeed;
  spec.cycles = kCycles;
  spec.pool_tasks = kPoolTasks;
  spec.initial_tasks = 6;
  spec.rate = 2.0;
  return spec;
}

/// Deep-copied event tuple (the stream only borrows frame tables).
struct EventRecord {
  WorkloadEventKind kind;
  std::size_t cycle;
  std::size_t task;
  std::vector<TimeNs> costs;

  bool operator==(const EventRecord& o) const {
    return kind == o.kind && cycle == o.cycle && task == o.task &&
           costs == o.costs;
  }
};

std::vector<EventRecord> drain_events(WorkloadGenerator& gen) {
  std::vector<EventRecord> script;
  WorkloadEvent e;
  while (gen.next_event(e)) {
    EventRecord r{e.kind, e.cycle, e.task, {}};
    if (e.kind == WorkloadEventKind::kFrameCosts) {
      r.costs.assign(e.costs,
                     e.costs + static_cast<std::size_t>(e.num_actions) *
                                   static_cast<std::size_t>(e.num_levels));
    }
    script.push_back(std::move(r));
  }
  return script;
}

bool summaries_identical(const RunSummary& a, const RunSummary& b) {
  return a.total_steps == b.total_steps &&
         a.manager_calls == b.manager_calls &&
         a.deadline_misses == b.deadline_misses &&
         a.infeasible == b.infeasible && a.total_ops == b.total_ops &&
         a.mean_quality == b.mean_quality &&
         a.overhead_pct == b.overhead_pct &&
         a.total_time_s == b.total_time_s &&
         a.smoothness.quality_stddev == b.smoothness.quality_stddev &&
         a.smoothness.switches == b.smoothness.switches;
}

bool servings_identical(const ServingSummary& a, const ServingSummary& b) {
  bool same = a.shards.size() == b.shards.size() &&
              a.total_steps == b.total_steps && a.total_ops == b.total_ops &&
              a.deadline_misses == b.deadline_misses &&
              a.admissions.size() == b.admissions.size();
  if (!same) return false;
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    if (!summaries_identical(a.shards[s].summary, b.shards[s].summary) ||
        a.shards[s].members != b.shards[s].members ||
        a.shards[s].clock != b.shards[s].clock) {
      return false;
    }
  }
  return true;
}

std::string make_bench_trace(const std::string& path, std::size_t cycles);

/// Gate 1: every backend's script replays identically; arrival backends
/// serve identically twice. Also emits the JSON cells.
bool check_replay_determinism(std::vector<DecisionBenchRecord>& records) {
  bool ok = true;

  // All backends: rewind and fresh-instance replay.
  auto trace_file = make_bench_trace("BENCH_workload_gen_content.bin", 8);
  for (const auto& name : workload_generator_names()) {
    WorkloadSpec spec = arrival_spec();
    spec.mix = pool_spec();
    spec.trace_path = trace_file;
    auto gen = open_workload_generator(name, spec);
    const auto first = drain_events(*gen);
    gen->rewind();
    const bool rewound = drain_events(*gen) == first;
    auto fresh = open_workload_generator(name, spec);
    const bool refreshed = drain_events(*fresh) == first;
    ok &= shape_check("'" + name + "' replays bit-identical scripts "
                                   "(rewind + fresh instance)",
                      !first.empty() && rewound && refreshed);
  }
  std::remove(trace_file.c_str());

  // Arrival backends drive the sharded server; two serves fold the same
  // artifacts, and the per-backend cost cells go to JSON.
  for (const char* name : {"poisson", "bursty", "diurnal", "checkpoint"}) {
    auto gen = open_workload_generator(name, arrival_spec());
    const ArrivalSchedule schedule = drain_arrival_schedule(*gen);

    ShardedServerSpec server;
    server.mix = pool_spec();
    server.num_shards = 2;
    server.num_workers = 1;
    server.cycles = kCycles;
    server.initial_tasks = arrival_spec().initial_tasks;
    const ServingSummary a = ShardedServer(server, schedule).serve();
    const ServingSummary b = ShardedServer(server, schedule).serve();
    ok &= shape_check(std::string("'") + name +
                          "' schedule serves identically twice",
                      a.total_steps > 0 && servings_identical(a, b));

    DecisionBenchRecord rec;
    rec.policy = "serve";
    rec.engine = std::string("workload-") + name;
    rec.n = kPoolTasks;
    rec.num_levels = 7;
    rec.ns_per_decision =
        a.max_clock_s * 1e9 / static_cast<double>(a.total_steps);
    rec.ops_per_decision = static_cast<double>(a.total_ops) /
                           static_cast<double>(a.total_steps);
    records.push_back(rec);
  }
  return ok;
}

/// Gate 2: "mix" through GeneratorTimeSource == direct MultiTaskMix read,
/// decision for decision and op for op.
bool check_adapter_bit_identity(std::vector<DecisionBenchRecord>& records) {
  const MultiTaskMixSpec mix_spec = pool_spec();
  const std::size_t cycles = 200;

  struct QualityStreamSink final : StepSink {
    std::vector<Quality> qualities;
    std::uint64_t total_ops = 0;
    void on_step(const ExecStep& step) override {
      qualities.push_back(step.quality);
      total_ops += step.ops;
    }
  };

  MultiTaskMix direct(mix_spec);
  BatchMultiTaskManager direct_mgr(direct.composed(), direct.engines());
  QualityStreamSink direct_sink;
  ExecutorOptions opts = direct.executor_options(cycles);
  opts.retain_steps = false;
  opts.retain_cycles = false;
  opts.sink = &direct_sink;
  const RunResult direct_run = run_cyclic(direct.composed().app(), direct_mgr,
                                          direct.source(), opts);

  WorkloadSpec wspec;
  wspec.cycles = cycles;
  wspec.mix = mix_spec;
  auto gen = open_workload_generator("mix", wspec);
  MultiTaskMix assembly(mix_spec);
  BatchMultiTaskManager gen_mgr(assembly.composed(), assembly.engines());
  GeneratorTimeSource source(*gen, cycles, assembly.composed().app().size(),
                             assembly.composed().num_levels());
  QualityStreamSink gen_sink;
  ExecutorOptions gen_opts = assembly.executor_options(cycles);
  gen_opts.retain_steps = false;
  gen_opts.retain_cycles = false;
  gen_opts.sink = &gen_sink;
  const RunResult gen_run = run_cyclic(assembly.composed().app(), gen_mgr,
                                       source, gen_opts);

  bool ok = true;
  ok &= shape_check("mix adapter: decision stream bit-identical over " +
                        std::to_string(cycles) + " cycles",
                    gen_sink.qualities == direct_sink.qualities &&
                        !gen_sink.qualities.empty());
  ok &= shape_check("mix adapter: Decision.ops and platform clock identical",
                    gen_sink.total_ops == direct_sink.total_ops &&
                        gen_run.total_time == direct_run.total_time &&
                        gen_run.total_overhead_time ==
                            direct_run.total_overhead_time);

  DecisionBenchRecord rec;
  rec.policy = "multitask";
  rec.engine = "workload-mix-adapter";
  rec.n = kPoolTasks;
  rec.num_levels = 7;
  rec.ns_per_decision =
      static_cast<double>(gen_run.total_time) /
      static_cast<double>(gen_run.total_steps);
  rec.ops_per_decision = static_cast<double>(gen_sink.total_ops) /
                         static_cast<double>(gen_run.total_steps);
  records.push_back(rec);
  return ok;
}

std::string make_bench_trace(const std::string& path, std::size_t cycles) {
  SyntheticSpec spec;
  spec.seed = kSeed;
  spec.num_actions = 16;
  spec.num_levels = 5;
  spec.budget_quality = 3;
  spec.num_cycles = cycles;
  const SyntheticWorkload w(spec);
  save_traces_file(w.traces(), path);
  return path;
}

/// Gate 3: trace replay is O(one frame) — a 64x longer recording leaves the
/// generator footprint unchanged.
bool check_streaming_shape() {
  const std::string short_path =
      make_bench_trace("BENCH_workload_short.bin", 4);
  const std::string long_path =
      make_bench_trace("BENCH_workload_long.bin", 256);

  WorkloadSpec spec;
  spec.cycles = 0;  // one pass over the recording
  spec.trace_path = short_path;
  auto small = open_workload_generator("trace-replay", spec);
  spec.trace_path = long_path;
  auto large = open_workload_generator("trace-replay", spec);

  WorkloadEvent e;
  bool streamed_ok = small->next_event(e) && large->next_event(e);
  const std::size_t small_bytes = small->memory_bytes();
  const std::size_t large_bytes = large->memory_bytes();
  std::size_t long_frames = 1;
  while (large->next_event(e)) ++long_frames;

  std::printf("  trace replay resident bytes: %zu (4-cycle file) vs %zu "
              "(256-cycle file)\n",
              small_bytes, large_bytes);
  std::remove(short_path.c_str());
  std::remove(long_path.c_str());

  bool ok = true;
  ok &= shape_check("trace replay streamed the full 256-cycle recording",
                    streamed_ok && long_frames == 256);
  ok &= shape_check(
      "trace replay memory is O(one frame): 64x the cycles, equal footprint",
      small_bytes == large_bytes && small_bytes > 0);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_workload.json";
  std::printf("=== W1 — pluggable workload-generator API ===\n");
  std::printf("pool: %zu tasks, %zu serving cycles; backends from the "
              "workload/generator.hpp registry\n\n",
              kPoolTasks, kCycles);

  std::vector<DecisionBenchRecord> records;
  bool ok = true;
  ok &= check_replay_determinism(records);
  ok &= check_adapter_bit_identity(records);
  ok &= check_streaming_shape();

  write_decision_bench_json(out_path, "workload", records);
  std::printf("\nwrote %s (%zu records)\n", out_path.c_str(), records.size());
  return ok ? 0 : 1;
}

// perfbench_e2e: end-to-end serving benchmark program.
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out FILE]
//   perfbench_e2e --check --workload NAME --seed N
//   perfbench_e2e --list-metrics | --list-workloads
//
// --trace 0 drives ShardedServer through its public API, as
// `speedqm_tool serve` does, and reports the end-to-end metrics; every
// served result is checked against the untraced layer replay, outside the
// timed region. --trace 1 pairs each untraced server run with a traced
// layer replay of the same pool, checks the two agree bit for bit, and
// reports the per-layer metrics. Both print every metric by name and unit,
// then one JSON result object as the last line of standard output.
//
// Exit codes: 0 = a result was printed (its "correct" field carries the
// verdict), 64 = usage error, 70 = internal error.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "digest.hpp"
#include "layer_trace.hpp"
#include "replay.hpp"
#include "serve/sharded_server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace speedqm;

/// Share of a traced replay's wall time its layer spans must cover.
constexpr double kAccountedFloor = 0.97;
/// Load-generating threads: never more than the host has.
constexpr std::size_t kMaxWorkers = 4;

enum class Scope { kEndToEnd, kPerLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  Scope scope;
};

// Every metric the benchmark reports. BENCHMARK.json lists the same names,
// units and directions (checked by the benchmark's tests).
const std::vector<MetricDef>& metric_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower", Scope::kEndToEnd},
      {"steps_per_s", "1/s", "higher", Scope::kEndToEnd},
      {"teardown_s", "s", "lower", Scope::kEndToEnd},
      {"total_s", "s", "lower", Scope::kEndToEnd},
      {"peak_rss_mb", "MB", "lower", Scope::kEndToEnd},
      {"mean_quality", "level", "higher", Scope::kEndToEnd},
      {"deadline_misses_per_cycle", "1/cycle", "lower", Scope::kPerLayer},
      {"workload.pool_build_s", "s", "lower", Scope::kPerLayer},
      {"workload.source_ns_per_lookup", "ns", "lower", Scope::kPerLayer},
      {"workload.source_lookups", "count", "lower", Scope::kPerLayer},
      {"workload.mix_build_ms", "ms", "lower", Scope::kPerLayer},
      {"serve.admission.joins", "count", "higher", Scope::kPerLayer},
      {"serve.admission.admit_us_p50", "us", "lower", Scope::kPerLayer},
      {"serve.admission.admit_us_tail", "us", "lower", Scope::kPerLayer},
      {"serve.admission.busy_s", "s", "lower", Scope::kPerLayer},
      {"serve.admission.rejected_share", "share", "lower", Scope::kPerLayer},
      {"serve.shard.rebuilds", "count", "lower", Scope::kPerLayer},
      {"serve.shard.rebuild_ms_p50", "ms", "lower", Scope::kPerLayer},
      {"serve.shard.rebuild_ms_tail", "ms", "lower", Scope::kPerLayer},
      {"core.compile_ms", "ms", "lower", Scope::kPerLayer},
      {"serve.shard.segments", "count", "lower", Scope::kPerLayer},
      {"serve.shard.segment_ms_p50", "ms", "lower", Scope::kPerLayer},
      {"serve.shard.segment_ms_tail", "ms", "lower", Scope::kPerLayer},
      {"serve.shard.barrier_ms", "ms", "lower", Scope::kPerLayer},
      {"serve.shard.straggler_ratio", "ratio", "lower", Scope::kPerLayer},
      {"serve.frontend.submits", "count", "higher", Scope::kPerLayer},
      {"serve.frontend.submit_ns_p50", "ns", "lower", Scope::kPerLayer},
      {"serve.frontend.submit_ns_tail", "ns", "lower", Scope::kPerLayer},
      {"serve.frontend.drain_us", "us", "lower", Scope::kPerLayer},
      {"serve.fold_us", "us", "lower", Scope::kPerLayer},
      {"serve.teardown_ms", "ms", "lower", Scope::kPerLayer},
      {"core.refresh_ns_p50", "ns", "lower", Scope::kPerLayer},
      {"core.refresh_ns_tail", "ns", "lower", Scope::kPerLayer},
      {"core.cached_ns_per_call", "ns", "lower", Scope::kPerLayer},
      {"core.epochs", "count", "lower", Scope::kPerLayer},
      {"core.ops_per_step", "count", "lower", Scope::kPerLayer},
      {"core.table_bytes", "bytes", "lower", Scope::kPerLayer},
      {"sim.executor_self_ns_per_step", "ns", "lower", Scope::kPerLayer},
      {"sim.sink_ns_per_step", "ns", "lower", Scope::kPerLayer},
      {"host.calib_ns", "ns", "lower", Scope::kPerLayer},
      {"trace.overhead_ratio", "ratio", "lower", Scope::kPerLayer},
      {"trace.accounted_share", "share", "higher", Scope::kPerLayer},
      {"trace.timer_ns", "ns", "lower", Scope::kPerLayer},
  };
  return defs;
}

const MetricDef& metric_def(const std::string& name) {
  for (const MetricDef& d : metric_defs()) {
    if (name == d.name) return d;
  }
  throw std::logic_error("unregistered metric " + name);
}

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// ---------------------------------------------------------------------------
// Host probes.
// ---------------------------------------------------------------------------

/// Machine-speed probe: ns per iteration of a fixed dependent integer
/// chain (median of several passes). Recorded beside the metrics so host
/// speed changes can be told apart from regressions.
double host_calib_ns() {
  constexpr int kPasses = 9;
  constexpr std::uint64_t kIters = 1u << 20;
  std::vector<double> passes;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int p = 0; p < kPasses; ++p) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x ^= x >> 29;
      x *= 0xBF58476D1CE4E5B9ULL;
      x += i;
    }
    passes.push_back(std::chrono::duration<double, std::nano>(
                         Clock::now() - t0)
                         .count() /
                     static_cast<double>(kIters));
  }
  if (x == 42) std::fprintf(stderr, "calib sentinel\n");  // keeps x live
  return median(passes);
}

/// Returns the heap retained from earlier runs to the OS and restarts the
/// process's peak-RSS mark, so the next reading covers one run only.
void reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  if (clear) clear << "5";
}

/// Peak resident set size since the last reset, in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Result output.
// ---------------------------------------------------------------------------

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<std::pair<std::string, double>> metrics;  // reported
  std::vector<std::pair<std::string, double>> notes;    // printed only

  void add(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
};

void print_metric_line(const std::string& name, double value,
                       const char* tag) {
  const MetricDef& d = metric_def(name);
  std::printf("  %-34s %16.6g %-6s (%s is better)%s\n", name.c_str(), value,
              d.unit, d.better, tag);
}

void print_result(Result& r) {
  for (auto& [name, value] : r.metrics) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      value = 0;
      r.correct = false;
    }
  }
  if (r.failed > 0 || r.attempted == 0) r.correct = false;
  std::printf("metrics (%zu attempted, %zu failed, output check %s):\n",
              r.attempted, r.failed, r.correct ? "passed" : "FAILED");
  for (const auto& [name, value] : r.metrics) {
    print_metric_line(name, value, "");
  }
  for (const auto& [name, value] : r.notes) {
    print_metric_line(name, value, "  [recorded, not reported]");
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", r.metrics[i].second);
    if (i) json += ", ";
    json += "\"" + r.metrics[i].first + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric_def(r.metrics[i].first).unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// One timed server run.
// ---------------------------------------------------------------------------

struct ServerRun {
  ServingSummary summary;
  double construct_s = 0;
  double serve_s = 0;     ///< serve() call, fold included
  double teardown_s = 0;  ///< destructor
  double total_s = 0;     ///< construction through destruction
  double rss_mb = 0;
};

ServerRun run_server(const Scenario& scenario) {
  // The front-end is the client side: filled before the clock starts, and
  // it outlives the server that borrows it.
  const std::unique_ptr<ServeFrontend> frontend = make_frontend(scenario);
  ShardedServerSpec spec = scenario.spec;
  spec.frontend = frontend.get();
  ServerRun r;
  reset_peak_rss();
  const auto t0 = Clock::now();
  auto server = std::make_unique<ShardedServer>(spec, ArrivalSchedule{});
  const auto t1 = Clock::now();
  r.summary = server->serve();
  const auto t2 = Clock::now();
  server.reset();
  const auto t3 = Clock::now();
  r.rss_mb = peak_rss_mb();
  r.construct_s = seconds_between(t0, t1);
  r.serve_s = seconds_between(t1, t2);
  r.teardown_s = seconds_between(t2, t3);
  r.total_s = seconds_between(t0, t3);
  return r;
}

std::uint64_t reference_digest(const Scenario& scenario) {
  const std::unique_ptr<ServeFrontend> frontend = make_frontend(scenario);
  return digest(replay_serve(scenario, frontend.get(), nullptr));
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.
// ---------------------------------------------------------------------------

struct Pool {
  Scenario scenario;
  std::uint64_t reference = 0;
  bool has_reference = false;
  Clock::duration last_run{};  ///< wall time of the pool's latest run
  bool served = false;  ///< at least one run matched the reference
  std::size_t steps = 0;
  double quality = 0;
  std::size_t misses = 0;
  std::size_t cycles_seen = 0;
};

Result run_end_to_end(const Workload& w, std::uint64_t seed, double seconds,
                      std::size_t workers) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  Result result;
  const double calib_before = host_calib_ns();

  std::vector<Pool> pools(w.pools);
  for (std::size_t k = 0; k < w.pools; ++k) {
    pools[k].scenario = make_scenario(w, seed, k, workers);
    try {
      pools[k].reference = reference_digest(pools[k].scenario);
      pools[k].has_reference = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: layer replay of pool %zu failed: %s\n",
                   k, e.what());
    }
  }

  struct {
    std::vector<double> setup, steps_per_s, teardown, total, rss;
  } samples;
  // Timed runs cycle through the pools while the next one still fits in
  // the time left; every pool is served at least once.
  for (std::size_t rep = 0;; ++rep) {
    Pool& pool = pools[rep % w.pools];
    if (rep >= w.pools && Clock::now() + pool.last_run > deadline) break;
    ++result.attempted;
    const auto started = Clock::now();
    try {
      const ServerRun run = run_server(pool.scenario);
      pool.last_run = Clock::now() - started;
      if (!pool.has_reference || digest(run.summary) != pool.reference) {
        std::fprintf(stderr,
                     "perfbench: pool %zu served a result that differs from "
                     "the layer replay\n",
                     rep % w.pools);
        ++result.failed;
        continue;
      }
      const ServingSummary& s = run.summary;
      const double setup = run.construct_s + run.serve_s - s.wall_seconds;
      std::fprintf(stderr,
                   "run %zu pool %zu: setup %.4f s, serve %.4f s, teardown "
                   "%.5f s, total %.4f s, peak rss %.2f MB\n",
                   rep, rep % w.pools, setup, s.wall_seconds, run.teardown_s,
                   run.total_s, run.rss_mb);
      samples.setup.push_back(setup);
      samples.steps_per_s.push_back(static_cast<double>(s.total_steps) /
                                    s.wall_seconds);
      samples.teardown.push_back(run.teardown_s);
      samples.total.push_back(run.total_s);
      samples.rss.push_back(run.rss_mb);
      pool.served = true;
      pool.steps = s.total_steps;
      pool.quality = s.mean_quality;
      pool.misses = s.deadline_misses;
      pool.cycles_seen = s.cycles_seen;
    } catch (const std::exception& e) {
      pool.last_run = Clock::now() - started;
      std::fprintf(stderr, "perfbench: server run failed: %s\n", e.what());
      ++result.failed;
    }
  }

  // Timings: the median over every run, whichever pool it served (the
  // round robin gives each pool the same share, give or take one run).
  // Quality: the step-weighted fold over the pools, in pool order.
  double quality_sum = 0;
  std::size_t steps = 0, misses = 0, cycles_seen = 0;
  for (const Pool& pool : pools) {
    if (!pool.served) {
      result.correct = false;
      continue;
    }
    steps += pool.steps;
    quality_sum += pool.quality * static_cast<double>(pool.steps);
    misses += pool.misses;
    cycles_seen += pool.cycles_seen;
  }
  result.add("setup_s", median(samples.setup));
  result.add("steps_per_s", median(samples.steps_per_s));
  result.add("teardown_s", median(samples.teardown));
  result.add("total_s", median(samples.total));
  result.add("peak_rss_mb", median(samples.rss));
  result.add("mean_quality",
             steps ? quality_sum / static_cast<double>(steps) : 0);
  result.notes.emplace_back(
      "deadline_misses_per_cycle",
      cycles_seen ? static_cast<double>(misses) /
                        static_cast<double>(cycles_seen)
                  : 0);
  const double calib_after = host_calib_ns();
  result.notes.emplace_back("host.calib_ns",
                            0.5 * (calib_before + calib_after));
  return result;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics from the traced replay.
// ---------------------------------------------------------------------------

/// Everything the traced replays measured, pooled over replays.
struct LayerTotals {
  std::size_t replays = 0;
  std::map<std::string, std::vector<double>> span_ms;  // by span name
  std::vector<double> refresh_p50_ns, refresh_tail_ns;  // per replay
  StepCounters counters;  // summed, without samples
  double run_span_ns = 0;  // summed serve.shard.run durations
  double straggler_max_ms = 0, straggler_mean_ms = 0;
  std::vector<double> submit_ns;
  std::vector<double> accounted;  // per replay
  double table_bytes = 0;
  std::size_t admissions = 0, rejected = 0;
  std::size_t steps = 0, misses = 0, cycles_seen = 0;
  std::uint64_t ops = 0;
  double traced_s = 0, untraced_s = 0;
  std::vector<std::vector<Span>> traces;
};

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

void absorb_replay(LayerTotals& t, const ReplayProbe& probe,
                   const ServingSummary& summary, double timer_ns) {
  ++t.replays;
  std::vector<Span> spans = probe.tracer.spans();
  const Span& root = spans.front();
  double covered_ms = 0;
  std::map<int, std::vector<double>> segment_runs;  // segment id -> shard ms
  for (const Span& s : spans) {
    if (s.id == root.id) continue;
    t.span_ms[s.name].push_back(s.ms());
    if (s.parent == root.id) covered_ms += s.ms();
    if (std::strcmp(s.name, "serve.shard.run") == 0) {
      segment_runs[s.parent].push_back(s.ms());
      t.run_span_ns += s.ms() * 1e6;
    }
  }
  t.accounted.push_back(covered_ms / root.ms());
  for (const auto& [segment, runs] : segment_runs) {
    t.straggler_max_ms += *std::max_element(runs.begin(), runs.end());
    t.straggler_mean_ms += sum(runs) / static_cast<double>(runs.size());
  }

  std::vector<double> refresh;
  for (const StepCounters& c : probe.shards) {
    t.counters.refreshes += c.refreshes;
    t.counters.cached_calls += c.cached_calls;
    t.counters.lookups += c.lookups;
    t.counters.sink_calls += c.sink_calls;
    t.counters.refresh_ns += c.refresh_ns;
    t.counters.cached_ns += c.cached_ns;
    t.counters.lookup_ns += c.lookup_ns;
    t.counters.sink_ns += c.sink_ns;
    for (const float ns : c.refresh_samples) refresh.push_back(ns - timer_ns);
  }
  t.refresh_p50_ns.push_back(median(refresh));
  t.refresh_tail_ns.push_back(tail(std::move(refresh)));
  t.table_bytes += static_cast<double>(probe.table_bytes);
  t.admissions += summary.admissions.size();
  t.rejected += summary.rejected;
  t.steps += summary.total_steps;
  t.ops += summary.total_ops;
  t.misses += summary.deadline_misses;
  t.cycles_seen += summary.cycles_seen;
  t.traces.push_back(std::move(spans));
}

Result run_traced(const Workload& w, std::uint64_t seed, double seconds,
                  std::size_t workers, const std::string& trace_out) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  Result result;
  const double calib_before = host_calib_ns();
  const double timer_ns = timer_cost_ns();
  LayerTotals t;

  std::vector<Scenario> scenarios;
  for (std::size_t k = 0; k < w.pools; ++k) {
    scenarios.push_back(make_scenario(w, seed, k, workers));
  }
  // Whole passes over the pools, so every pool weighs the same; another
  // pass starts only if one more still fits in the time left.
  Clock::duration last_pass{};
  for (std::size_t pass = 0;
       pass == 0 || Clock::now() + last_pass <= deadline; ++pass) {
    const auto pass_start = Clock::now();
    for (std::size_t k = 0; k < w.pools; ++k) {
      ++result.attempted;
      try {
        const ServerRun server = run_server(scenarios[k]);
        ReplayProbe probe;
        std::vector<double> submit_ns;
        const std::unique_ptr<ServeFrontend> frontend =
            make_frontend(scenarios[k], &submit_ns);
        const auto t0 = Clock::now();
        const ServingSummary replayed =
            replay_serve(scenarios[k], frontend.get(), &probe);
        const double traced_s = seconds_between(t0, Clock::now());
        if (digest(replayed) != digest(server.summary)) {
          std::fprintf(stderr,
                       "perfbench: traced replay of pool %zu differs from "
                       "the server\n",
                       k);
          ++result.failed;
          continue;
        }
        t.traced_s += traced_s;
        t.untraced_s += server.total_s;
        for (const double ns : submit_ns) {
          t.submit_ns.push_back(ns - timer_ns);
        }
        absorb_replay(t, probe, replayed, timer_ns);
        if (t.accounted.back() < kAccountedFloor) {
          std::fprintf(stderr,
                       "perfbench: layer spans cover %.3f of the traced "
                       "replay's wall time (floor %.2f)\n",
                       t.accounted.back(), kAccountedFloor);
          ++result.failed;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: traced run failed: %s\n", e.what());
        ++result.failed;
      }
    }
    last_pass = Clock::now() - pass_start;
  }
  if (t.replays == 0) {
    result.correct = false;
    for (const MetricDef& d : metric_defs()) {
      if (d.scope == Scope::kPerLayer) result.add(d.name, 0);
    }
    return result;
  }

  const double replays = static_cast<double>(t.replays);
  const auto spans = [&t](const char* name) -> const std::vector<double>& {
    static const std::vector<double> none;
    const auto it = t.span_ms.find(name);
    return it == t.span_ms.end() ? none : it->second;
  };
  const auto per_replay = [replays](double total) { return total / replays; };
  const auto scaled = [](std::vector<double> v, double factor) {
    for (double& x : v) x *= factor;
    return v;
  };
  const StepCounters& c = t.counters;
  const auto per_call = [timer_ns](std::int64_t ns, std::uint64_t calls) {
    return calls ? static_cast<double>(ns) / static_cast<double>(calls) -
                       timer_ns
                 : 0.0;
  };
  const double steps = static_cast<double>(t.steps);

  result.add("deadline_misses_per_cycle",
             t.cycles_seen ? static_cast<double>(t.misses) /
                                 static_cast<double>(t.cycles_seen)
                           : 0);
  result.add("workload.pool_build_s",
             median(spans("workload.pool_build")) * 1e-3);
  result.add("workload.source_ns_per_lookup", per_call(c.lookup_ns, c.lookups));
  result.add("workload.source_lookups",
             per_replay(static_cast<double>(c.lookups)));
  result.add("workload.mix_build_ms", median(spans("workload.mix_build")));
  const std::vector<double> admit_us =
      scaled(spans("serve.admission.admit"), 1e3);
  result.add("serve.admission.joins",
             per_replay(static_cast<double>(admit_us.size())));
  result.add("serve.admission.admit_us_p50", median(admit_us));
  result.add("serve.admission.admit_us_tail", tail(admit_us));
  result.add("serve.admission.busy_s", per_replay(sum(admit_us)) * 1e-6);
  result.add("serve.admission.rejected_share",
             t.admissions ? static_cast<double>(t.rejected) /
                                static_cast<double>(t.admissions)
                          : 0);
  const std::vector<double>& rebuild_ms = spans("serve.shard.rebuild");
  result.add("serve.shard.rebuilds",
             per_replay(static_cast<double>(rebuild_ms.size())));
  result.add("serve.shard.rebuild_ms_p50", median(rebuild_ms));
  result.add("serve.shard.rebuild_ms_tail", tail(rebuild_ms));
  result.add("core.compile_ms", median(spans("core.compile")));
  const std::vector<double>& segment_ms = spans("serve.shard.run");
  result.add("serve.shard.segments",
             per_replay(static_cast<double>(segment_ms.size())));
  result.add("serve.shard.segment_ms_p50", median(segment_ms));
  result.add("serve.shard.segment_ms_tail", tail(segment_ms));
  result.add("serve.shard.barrier_ms", per_replay(sum(spans("serve.barrier"))));
  result.add("serve.shard.straggler_ratio",
             t.straggler_mean_ms > 0
                 ? t.straggler_max_ms / t.straggler_mean_ms
                 : 0);
  result.add("serve.frontend.submits",
             per_replay(static_cast<double>(t.submit_ns.size())));
  result.add("serve.frontend.submit_ns_p50", median(t.submit_ns));
  result.add("serve.frontend.submit_ns_tail", tail(t.submit_ns));
  result.add("serve.frontend.drain_us",
             per_replay(sum(spans("serve.frontend.drain"))) * 1e3);
  result.add("serve.fold_us", median(spans("serve.fold")) * 1e3);
  result.add("serve.teardown_ms", median(spans("serve.teardown")));
  result.add("core.refresh_ns_p50", median(t.refresh_p50_ns));
  result.add("core.refresh_ns_tail", median(t.refresh_tail_ns));
  result.add("core.cached_ns_per_call", per_call(c.cached_ns, c.cached_calls));
  result.add("core.epochs", per_replay(static_cast<double>(c.refreshes)));
  result.add("core.ops_per_step",
             steps > 0 ? static_cast<double>(t.ops) / steps : 0);
  result.add("core.table_bytes", per_replay(t.table_bytes));
  // A timed call costs about two clock reads, one inside its interval.
  const double timed_raw_ns = static_cast<double>(
      c.refresh_ns + c.cached_ns + c.lookup_ns + c.sink_ns);
  const double outside_ns =
      timer_ns * static_cast<double>(c.timed_calls());
  result.add("sim.executor_self_ns_per_step",
             steps > 0 ? (t.run_span_ns - timed_raw_ns - outside_ns) / steps
                       : 0);
  result.add("sim.sink_ns_per_step",
             steps > 0 ? (static_cast<double>(c.sink_ns) -
                          timer_ns * static_cast<double>(c.sink_calls)) /
                             steps
                       : 0);
  result.add("host.calib_ns", 0.5 * (calib_before + host_calib_ns()));
  result.add("trace.overhead_ratio",
             t.untraced_s > 0 ? t.traced_s / t.untraced_s : 0);
  result.add("trace.accounted_share", median(t.accounted));
  result.add("trace.timer_ns", timer_ns);

  if (!trace_out.empty()) {
    if (!write_chrome_trace(trace_out, t.traces)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// --check: the replay digest against the server's, for the first pool.
// ---------------------------------------------------------------------------

int run_check(const Workload& w, std::uint64_t seed, std::size_t workers) {
  const Scenario scenario = make_scenario(w, seed, 0, workers);
  const std::uint64_t served = digest(run_server(scenario).summary);
  const std::uint64_t replayed = reference_digest(scenario);
  ReplayProbe probe;
  const std::unique_ptr<ServeFrontend> frontend = make_frontend(scenario);
  const std::uint64_t traced =
      digest(replay_serve(scenario, frontend.get(), &probe));
  std::printf("%s seed %llu: server %016llx replay %016llx traced %016llx\n",
              w.name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(served),
              static_cast<unsigned long long>(replayed),
              static_cast<unsigned long long>(traced));
  return served == replayed && served == traced ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

int usage_error(const std::string& message) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\n"
               "usage: perfbench_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n"
               "       perfbench_e2e --check --workload NAME --seed N\n"
               "       perfbench_e2e --list-metrics | --list-workloads\n",
               message.c_str());
  return 64;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  for (const char ch : text) {
    if (ch < '0' || ch > '9') return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

int main_impl(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--check" || key == "--list-metrics" ||
        key == "--list-workloads") {
      args[key] = "1";
      continue;
    }
    if (key != "--workload" && key != "--seed" && key != "--seconds" &&
        key != "--trace" && key != "--trace-out") {
      return usage_error("unknown argument " + key);
    }
    if (i + 1 >= argc) return usage_error("missing value for " + key);
    args[key] = argv[++i];
  }

  if (args.count("--list-metrics")) {
    for (const MetricDef& d : metric_defs()) {
      std::printf("%s %s %s %s\n", d.name, d.unit, d.better,
                  d.scope == Scope::kEndToEnd ? "end_to_end" : "per_layer");
    }
    return 0;
  }
  if (args.count("--list-workloads")) {
    for (const Workload& w : workloads()) {
      std::printf("%s\t%s\n", w.name, w.why);
    }
    return 0;
  }

  const Workload* w = find_workload(args["--workload"]);
  if (!w) return usage_error("unknown workload '" + args["--workload"] + "'");
  std::uint64_t seed = 0;
  if (!parse_u64(args["--seed"], &seed)) {
    return usage_error("--seed needs a non-negative integer");
  }
  const std::size_t workers = std::max<std::size_t>(
      1, std::min<std::size_t>(kMaxWorkers,
                               std::thread::hardware_concurrency()));
  if (args.count("--check")) return run_check(*w, seed, workers);

  std::uint64_t seconds = 0;
  if (!parse_u64(args["--seconds"], &seconds) || seconds < 1 ||
      seconds > 3600) {
    return usage_error("--seconds needs an integer in [1, 3600]");
  }
  const std::string trace = args["--trace"];
  if (trace != "0" && trace != "1") return usage_error("--trace needs 0 or 1");

  std::printf("perfbench %s: seed %llu, %zu pools, %zu workers, %llu s, "
              "trace %s\n",
              w->name, static_cast<unsigned long long>(seed), w->pools,
              workers, static_cast<unsigned long long>(seconds),
              trace.c_str());
  std::fflush(stdout);
  Result result =
      trace == "1"
          ? run_traced(*w, seed, static_cast<double>(seconds), workers,
                       args["--trace-out"])
          : run_end_to_end(*w, seed, static_cast<double>(seconds), workers);
  print_result(result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: internal error: %s\n", e.what());
    return 70;
  }
}

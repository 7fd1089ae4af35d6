#include "replay.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <numeric>
#include <string>
#include <thread>

#include "sim/metrics.hpp"

namespace perfbench {

using namespace speedqm;

namespace {

// Members are declared in ShardedServer's order so teardown releases them
// in the same order.
struct ReplayShard {
  std::vector<std::size_t> members;
  std::unique_ptr<MultiTaskMix> mix;  // null while empty
  std::unique_ptr<BatchMultiTaskManager> manager;
  std::unique_ptr<RunSummaryAccumulator> acc;
  TimeNs clock = 0;
  std::size_t epochs = 0;  // accumulated across rebuilds
  std::size_t rebuilds = 0;
  bool dirty = false;
};

struct ReplayState {
  std::shared_ptr<TaskPool> pool;
  TimeNs shard_budget = 0;
  std::unique_ptr<AdmissionController> admission;
  std::vector<ReplayShard> shards;
  std::vector<AdmissionDecision> admissions;
  std::size_t leaves = 0;
  std::uint64_t frontend_applied = 0;
  std::uint64_t frontend_dropped = 0;
};

class Replay {
 public:
  Replay(const Scenario& scenario, ServeFrontend* frontend, ReplayProbe* probe)
      : spec_(scenario.spec),
        frontend_(frontend),
        probe_(probe),
        tracer_(probe ? &probe->tracer : nullptr) {}

  ServingSummary run();

 private:
  std::vector<std::vector<std::size_t>> memberships() const;
  void admit(std::size_t task, std::size_t cycle, int parent);
  void apply_frontend(std::size_t cycle, int parent);
  void rebuild(ReplayShard& shard, int parent);
  void run_shard(std::size_t s, std::size_t start_cycle, std::size_t cycles,
                 unsigned thread, int parent);
  void run_segment(std::size_t start_cycle, std::size_t cycles, int parent);

  const ShardedServerSpec& spec_;
  ServeFrontend* frontend_;
  ReplayProbe* probe_;
  Tracer* tracer_;
  std::unique_ptr<ReplayState> st_ = std::make_unique<ReplayState>();
};

std::vector<std::vector<std::size_t>> Replay::memberships() const {
  std::vector<std::vector<std::size_t>> out;
  out.reserve(st_->shards.size());
  for (const ReplayShard& shard : st_->shards) out.push_back(shard.members);
  return out;
}

void Replay::admit(std::size_t task, std::size_t cycle, int parent) {
  const std::vector<std::vector<std::size_t>> current = memberships();
  AdmissionDecision decision;
  {
    const ScopedSpan span(tracer_, "serve.admission.admit", parent);
    decision = st_->admission->admit(task, current, cycle);
  }
  if (decision.admitted) {
    st_->shards[decision.shard].members.push_back(task);
    st_->shards[decision.shard].dirty = true;
  }
  st_->admissions.push_back(std::move(decision));
}

// Mirrors the server's front-end barrier step: matured leaves erase the
// member, joins go through admission, and join-of-present /
// leave-of-absent requests are dropped with a count.
void Replay::apply_frontend(std::size_t cycle, int parent) {
  if (!frontend_) return;
  std::vector<FrontendRequest> matured;
  {
    const ScopedSpan span(tracer_, "serve.frontend.drain", parent);
    matured = frontend_->take_matured(cycle);
  }
  for (const FrontendRequest& r : matured) {
    if (r.task >= st_->pool->size()) {
      ++st_->frontend_dropped;
      continue;
    }
    ReplayShard* holder = nullptr;
    for (ReplayShard& shard : st_->shards) {
      if (std::find(shard.members.begin(), shard.members.end(), r.task) !=
          shard.members.end()) {
        holder = &shard;
        break;
      }
    }
    if (r.kind == RequestKind::kLeave) {
      if (!holder) {
        ++st_->frontend_dropped;
        continue;
      }
      holder->members.erase(
          std::find(holder->members.begin(), holder->members.end(), r.task));
      holder->dirty = true;
      ++st_->leaves;
      ++st_->frontend_applied;
      continue;
    }
    if (holder) {
      ++st_->frontend_dropped;
      continue;
    }
    admit(r.task, cycle, parent);
    ++st_->frontend_applied;
  }
}

void Replay::rebuild(ReplayShard& shard, int parent) {
  const ScopedSpan span(tracer_, "serve.shard.rebuild", parent);
  shard.epochs += shard.manager ? shard.manager->epochs() : 0;
  shard.manager.reset();
  shard.mix.reset();
  if (!shard.members.empty()) {
    {
      const ScopedSpan mix(tracer_, "workload.mix_build", span.id());
      shard.mix = std::make_unique<MultiTaskMix>(st_->pool, shard.members,
                                                 st_->shard_budget);
    }
    {
      const ScopedSpan compile(tracer_, "core.compile", span.id());
      shard.manager = std::make_unique<BatchMultiTaskManager>(
          shard.mix->composed(), shard.mix->engines(), spec_.mode,
          spec_.layout, spec_.kernel);
    }
    ++shard.rebuilds;
  }
  shard.dirty = false;
}

void Replay::run_shard(std::size_t s, std::size_t start_cycle,
                       std::size_t cycles, unsigned thread, int parent) {
  ReplayShard& shard = st_->shards[s];
  if (!shard.mix) return;  // an empty shard idles through the segment
  const ScopedSpan span(tracer_, "serve.shard.run", parent, thread);
  ExecutorOptions opts = shard.mix->executor_options(cycles);
  opts.retain_steps = false;
  opts.retain_cycles = false;
  opts.start_cycle = start_cycle;
  opts.start_time = shard.clock;
  const ScheduledApp& app = shard.mix->composed().app();
  RunResult run;
  if (probe_) {
    StepCounters& counters = probe_->shards[s];
    TimedManager manager(*shard.manager, counters);
    TimedSource source(shard.mix->source(), counters);
    TimedSink sink(*shard.acc, counters);
    opts.sink = &sink;
    run = run_cyclic(app, manager, source, opts);
  } else {
    opts.sink = shard.acc.get();
    run = run_cyclic(app, *shard.manager, shard.mix->source(), opts);
  }
  shard.clock = run.total_time;
}

// The server's worker pool: worker w runs shards w, w + W, ... and the
// first failure is rethrown on the control thread.
void Replay::run_segment(std::size_t start_cycle, std::size_t cycles,
                         int parent) {
  const ScopedSpan span(tracer_, "serve.segment", parent);
  const std::size_t num_shards = st_->shards.size();
  const std::size_t workers = std::max<std::size_t>(
      1, std::min(spec_.num_workers == 0 ? num_shards : spec_.num_workers,
                  num_shards));
  if (workers == 1) {
    for (std::size_t s = 0; s < num_shards; ++s) {
      run_shard(s, start_cycle, cycles, 1, span.id());
    }
    return;
  }
  std::vector<std::exception_ptr> failures(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([this, w, workers, num_shards, start_cycle, cycles,
                          &failures, &span] {
      try {
        for (std::size_t s = w; s < num_shards; s += workers) {
          run_shard(s, start_cycle, cycles, static_cast<unsigned>(w + 1),
                    span.id());
        }
      } catch (...) {
        failures[w] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
}

ServingSummary Replay::run() {
  const ScopedSpan root(tracer_, "replay", -1);
  const std::size_t num_shards = spec_.num_shards;
  if (probe_) probe_->shards.assign(num_shards, StepCounters{});

  std::size_t initial_tasks = 0;
  {
    const ScopedSpan span(tracer_, "workload.pool_build", root.id());
    st_->pool = std::make_shared<TaskPool>(spec_.mix);
    initial_tasks = std::min(spec_.initial_tasks, st_->pool->size());
    std::vector<std::size_t> all(st_->pool->size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    st_->shard_budget =
        st_->pool->budget_for(all) / static_cast<TimeNs>(num_shards);
    st_->admission = std::make_unique<AdmissionController>(
        st_->pool, st_->shard_budget, spec_.placement);
    st_->shards.resize(num_shards);
  }

  {
    const ScopedSpan span(tracer_, "serve.placement", root.id());
    for (std::size_t task = 0; task < initial_tasks; ++task) {
      admit(task, 0, span.id());
    }
    for (std::size_t s = 0; s < num_shards; ++s) {
      st_->shards[s].acc = std::make_unique<RunSummaryAccumulator>(
          "shard-" + std::to_string(s));
      st_->shards[s].dirty = true;
    }
  }

  // Barrier spans cover the control thread's work between segments:
  // front-end hand-off, admissions, leaves and shard rebuilds.
  int barrier = tracer_ ? tracer_->begin("serve.barrier", root.id(), 0) : -1;
  if (frontend_) {
    {
      const ScopedSpan span(tracer_, "serve.frontend.drain", barrier);
      frontend_->drain();
    }
    apply_frontend(0, barrier);
  }
  std::size_t cursor = 0;
  while (cursor < spec_.cycles) {
    std::size_t next = spec_.cycles;
    if (frontend_) {
      std::size_t request_cycle = 0;
      bool pending = false;
      {
        const ScopedSpan span(tracer_, "serve.frontend.drain", barrier);
        frontend_->drain();
        pending = frontend_->next_request_cycle_after(cursor, &request_cycle);
      }
      if (pending) next = std::min(next, std::max(request_cycle, cursor + 1));
    }
    for (ReplayShard& shard : st_->shards) {
      if (shard.dirty) rebuild(shard, barrier);
    }
    if (probe_) {
      std::size_t bytes = 0;
      for (const ReplayShard& shard : st_->shards) {
        if (shard.manager) bytes += shard.manager->memory_bytes();
      }
      probe_->table_bytes = std::max(probe_->table_bytes, bytes);
    }
    if (tracer_) tracer_->end(barrier);

    run_segment(cursor, next - cursor, root.id());
    cursor = next;
    if (cursor >= spec_.cycles) break;
    barrier = tracer_ ? tracer_->begin("serve.barrier", root.id(), 0) : -1;
    apply_frontend(cursor, barrier);
  }

  ServingSummary summary;
  {
    const ScopedSpan span(tracer_, "serve.fold", root.id());
    std::vector<ShardReport> reports;
    reports.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      ReplayShard& shard = st_->shards[s];
      ShardReport report;
      report.shard = s;
      report.members = shard.members;
      report.summary = shard.acc->finish();
      report.clock = shard.clock;
      report.epochs =
          shard.epochs + (shard.manager ? shard.manager->epochs() : 0);
      report.rebuilds = shard.rebuilds;
      reports.push_back(std::move(report));
    }
    summary = fold_serving_summary(std::move(reports), st_->admissions,
                                   st_->leaves);
  }
  if (frontend_) {
    frontend_->drain();
    const FrontendStats& fs = frontend_->stats();
    summary.queue_wait_cycles = fs.queue_wait_cycles;
    summary.frontend_requests = fs.drained;
    summary.frontend_applied = st_->frontend_applied;
    summary.frontend_dropped = st_->frontend_dropped;
    summary.frontend_late = fs.late;
    summary.frontend_pending = frontend_->pending();
    summary.frontend_rejected = frontend_->queue().rejected();
  }
  {
    const ScopedSpan span(tracer_, "serve.teardown", root.id());
    st_.reset();
  }
  return summary;
}

}  // namespace

ServingSummary replay_serve(const Scenario& scenario, ServeFrontend* frontend,
                            ReplayProbe* probe) {
  return Replay(scenario, frontend, probe).run();
}

}  // namespace perfbench

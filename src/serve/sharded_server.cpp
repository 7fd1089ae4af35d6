#include "serve/sharded_server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>

#include "sim/executor_loop.hpp"
#include "support/contract.hpp"

namespace speedqm {

namespace {

std::vector<std::size_t> full_pool_members(std::size_t count) {
  std::vector<std::size_t> members(count);
  for (std::size_t i = 0; i < count; ++i) members[i] = i;
  return members;
}

/// Forwards every step/cycle to the shard accumulator and the optional
/// spec tap. want_stop is never honored: a serving segment always runs to
/// its boundary so shard totals stay comparable.
class TeeSink final : public StepSink {
 public:
  TeeSink(StepSink* primary, StepSink* tap) : primary_(primary), tap_(tap) {}
  void on_step(const ExecStep& step) override {
    primary_->on_step(step);
    if (tap_) tap_->on_step(step);
  }
  void on_cycle(const CycleStats& cycle) override {
    primary_->on_cycle(cycle);
    if (tap_) tap_->on_cycle(cycle);
  }
  bool want_stop() const override { return false; }

 private:
  StepSink* primary_;
  StepSink* tap_;
};

/// Flags the pacer as actively executing for the host watchdog; cleared
/// on scope exit even when the segment throws.
class ArmGuard {
 public:
  explicit ArmGuard(WallClockPacer* pacer) : pacer_(pacer) {
    if (pacer_) pacer_->armed().store(true, std::memory_order_release);
  }
  ~ArmGuard() {
    if (pacer_) pacer_->armed().store(false, std::memory_order_release);
  }

 private:
  WallClockPacer* pacer_;
};

}  // namespace

ShardedServer::ShardedServer(const ShardedServerSpec& spec,
                             ArrivalSchedule schedule)
    : spec_(spec), schedule_(std::move(schedule)) {
  // Checked in every build: zero shards would divide the budget by zero,
  // and a zero horizon would serve nothing yet report a clean run.
  if (spec.num_shards < 1) {
    throw contract_error("ShardedServer: num_shards must be >= 1");
  }
  if (spec.cycles < 1) {
    throw contract_error("ShardedServer: cycles must be >= 1");
  }
  pool_ = std::make_shared<TaskPool>(spec.mix);
  if (spec_.initial_tasks == static_cast<std::size_t>(-1) ||
      spec_.initial_tasks > pool_->size()) {
    spec_.initial_tasks = pool_->size();
  }

  // Fixed per-shard capacity: the pool's full-mix budget split S ways.
  // S = 1 reproduces MultiTaskMix(spec)'s budget bit for bit, which is
  // what makes the degenerate differential exact.
  shard_budget_ =
      pool_->budget_for(full_pool_members(pool_->size())) /
      static_cast<TimeNs>(spec.num_shards);
  admission_ = std::make_unique<AdmissionController>(pool_, shard_budget_,
                                                     spec.placement);
  shards_.resize(spec.num_shards);
  members_.resize(spec.num_shards);
  for (std::size_t s = 0; s < shards_.size(); ++s) shards_[s].index = s;

  // Scenario disconnect windows become forced leave/rejoin pairs in the
  // arrival schedule: the task leaves before the window's first cycle and
  // asks to rejoin (through admission) at its end, if that is still inside
  // the horizon.
  if (!spec_.perturb.empty()) {
    std::vector<ArrivalEvent> forced;
    for (const PerturbationWindow& w :
         spec_.perturb.windows_of(FaultKind::kDisconnect)) {
      if (w.begin_cycle >= spec_.cycles) continue;
      forced.push_back({w.begin_cycle, w.target, /*join=*/false});
      if (w.end_cycle < spec_.cycles) {
        forced.push_back({w.end_cycle, w.target, /*join=*/true});
      }
      ++scripted_disconnects_;
    }
    if (!forced.empty()) {
      schedule_ = merge_forced_events(schedule_, std::move(forced),
                                      pool_->size(), spec_.initial_tasks);
    }
  }
}

ShardedServer::~ShardedServer() = default;

void ShardedServer::ensure_realtime(Shard& shard) {
  if (spec_.clock == ClockMode::kSim || shard.pacer) return;
  if (spec_.clock == ClockMode::kVirtual) {
    shard.wall = std::make_unique<VirtualWallClock>();
  } else {
    shard.wall = std::make_unique<SteadyWallClock>();
  }
  RealtimeOptions ro;
  ro.clock = shard.wall.get();
  ro.wall_per_sim = spec_.wall_per_sim;
  ro.period = shard_budget_;
  ro.watchdog = spec_.watchdog;
  ro.governor = spec_.governor;
  shard.pacer = std::make_unique<WallClockPacer>(ro);

  // Scripted shard stalls targeting this shard become backend-clock
  // stalls, injected exactly once per overlapped cycle by the pacer —
  // they now cost budget (lag -> misses) instead of being invariant.
  std::vector<StallWindow> stalls;
  for (const PerturbationWindow& w :
       spec_.perturb.windows_of(FaultKind::kShardStall)) {
    if (w.target != PerturbationWindow::kAllTargets &&
        w.target != shard.index) {
      continue;
    }
    StallWindow s;
    s.begin_cycle = w.begin_cycle;
    s.end_cycle = w.end_cycle;
    // Window magnitude is milliseconds of host delay per stalled cycle.
    s.wall_ns = static_cast<std::int64_t>(std::llround(w.magnitude * 1e6));
    if (s.wall_ns > 0) stalls.push_back(s);
  }
  shard.pacer->set_stall_windows(std::move(stalls));
}

void ShardedServer::rebuild_shard(Shard& shard) {
  shard.epochs += shard.manager ? shard.manager->epochs() : 0;
  // Decorators borrow the mix/manager being torn down — drop them first.
  shard.governed.reset();
  shard.pmanager.reset();
  shard.psource.reset();
  shard.pplatform.reset();
  shard.manager.reset();
  shard.mix.reset();
  const std::vector<std::size_t>& members = members_[shard.index];
  if (!members.empty()) {
    shard.mix = std::make_unique<MultiTaskMix>(pool_, members,
                                               shard_budget_);
    shard.manager = std::make_unique<BatchMultiTaskManager>(
        shard.mix->composed(), shard.mix->engines(), spec_.mode,
        spec_.layout, spec_.kernel);
    if (!spec_.perturb.empty()) {
      // The cursor (scenario + shard salt) survives rebuilds; only the
      // wrappers around the fresh mix/manager are rebuilt. Horizon =
      // serving cycles, so the executor passes absolute cycles through
      // and windows line up across segment splits.
      if (!shard.cursor) {
        shard.cursor = std::make_unique<PerturbationCursor>(
            spec_.perturb, static_cast<std::uint64_t>(shard.index));
      }
      shard.psource = std::make_unique<PerturbedTimeSource>(
          shard.mix->source(), *shard.cursor, spec_.cycles);
      shard.pplatform = std::make_unique<PerturbedPlatform>(
          shard.mix->executor_options(1).platform, *shard.cursor);
      shard.pmanager =
          std::make_unique<PerturbedManager>(*shard.manager, *shard.cursor);
    }
    ensure_realtime(shard);
    if (shard.pacer) {
      // The governor clamp sits outermost — above any perturbed manager —
      // so it bounds what the executor actually runs.
      QualityManager& decision_path =
          shard.pmanager ? static_cast<QualityManager&>(*shard.pmanager)
                         : static_cast<QualityManager&>(*shard.manager);
      shard.governed = std::make_unique<GovernedManager>(
          decision_path, shard.pacer->governor());
    }
    ++shard.rebuilds;
  }
  shard.dirty = false;
}

void ShardedServer::place_initial_tasks() {
  for (std::size_t task = 0; task < spec_.initial_tasks; ++task) {
    AdmissionDecision decision = admission_->admit(task, members_, 0);
    if (decision.admitted) {
      members_[decision.shard].push_back(task);
    }
    admissions_.push_back(std::move(decision));
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].acc = std::make_unique<RunSummaryAccumulator>(
        "shard-" + std::to_string(s));
    if (!spec_.perturb.empty()) {
      // On a real-time backend, shard-stall windows cost budget and their
      // misses must be attributed as stress like any other fault.
      shards_[s].acc->track_stress_windows(
          spec_.perturb.stress_ranges(spec_.clock != ClockMode::kSim));
    }
    shards_[s].dirty = true;
  }
}

bool ShardedServer::join(std::size_t task, std::size_t cycle) {
  AdmissionDecision decision = admission_->admit(task, members_, cycle);
  const bool admitted = decision.admitted;
  if (admitted) {
    members_[decision.shard].push_back(task);
    shards_[decision.shard].dirty = true;
  }
  admissions_.push_back(std::move(decision));
  return admitted;
}

bool ShardedServer::leave(std::size_t task) {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::vector<std::size_t>& members = members_[s];
    const auto it = std::find(members.begin(), members.end(), task);
    if (it == members.end()) continue;
    members.erase(it);
    shards_[s].dirty = true;
    return true;
  }
  return false;
}

bool ShardedServer::resident(std::size_t task) const {
  return std::any_of(members_.begin(), members_.end(),
                     [task](const std::vector<std::size_t>& members) {
                       return std::find(members.begin(), members.end(),
                                        task) != members.end();
                     });
}

void ShardedServer::apply_events(std::size_t cycle) {
  for (const ArrivalEvent& event : schedule_.events_at(cycle)) {
    if (event.join) {
      join(event.task, cycle);
    } else if (leave(event.task)) {
      ++leaves_;
    }
  }
}

void ShardedServer::apply_frontend(std::size_t cycle) {
  if (!spec_.frontend) return;
  for (const FrontendRequest& r : spec_.frontend->take_matured(cycle)) {
    if (r.task >= pool_->size()) {
      ++frontend_dropped_;
      continue;
    }
    if (r.kind == RequestKind::kLeave) {
      if (leave(r.task)) {
        ++leaves_;
        ++frontend_applied_;
      } else {
        ++frontend_dropped_;
      }
      continue;
    }
    // A join for a task already resident somewhere is a racy duplicate —
    // drop it (counted) rather than double-admit; ArrivalSchedules cannot
    // express this state, so the differential paths never disagree here.
    if (resident(r.task)) {
      ++frontend_dropped_;
      continue;
    }
    join(r.task, cycle);
    ++frontend_applied_;
  }
}

void ShardedServer::apply_governor(std::size_t cycle) {
  // Shed first: shards whose governor crossed the shed threshold (or got
  // a watchdog escalation) park their most recently admitted members —
  // the back of the composition order, deterministic and cheapest to
  // re-admit. A shard never sheds below one member.
  for (Shard& shard : shards_) {
    if (!shard.pacer) continue;
    if (!shard.pacer->governor().take_shed_request()) continue;
    std::vector<std::size_t>& members = members_[shard.index];
    if (members.size() <= 1) continue;
    std::size_t to_shed = std::max<std::size_t>(1, members.size() / 4);
    while (to_shed-- > 0 && members.size() > 1) {
      parked_.push_back({members.back(), shard.index});
      members.pop_back();
      ++shed_tasks_;
    }
    shard.dirty = true;
  }

  // Re-admission: once a parked task's origin shard is back to Normal
  // (hysteresis satisfied), it asks to rejoin through the normal
  // admission path — logged like any join, possibly landing elsewhere.
  // A parked task that a scripted leave/join pair already put back on a
  // shard is resident again and stops waiting.
  std::vector<Parked> still_parked;
  for (const Parked& parked : parked_) {
    if (resident(parked.task)) continue;
    if (shards_[parked.origin].pacer->governor().state() !=
        GovernorState::kNormal) {
      still_parked.push_back(parked);
      continue;
    }
    if (join(parked.task, cycle)) {
      ++readmitted_tasks_;
    } else {
      still_parked.push_back(parked);
    }
  }
  parked_ = std::move(still_parked);
}

void ShardedServer::run_shard_segment(Shard& shard, std::size_t start_cycle,
                                      std::size_t cycles) {
  if (!shard.mix) return;  // empty shard idles through the segment
  ExecutorOptions opts = shard.mix->executor_options(cycles);
  opts.retain_steps = false;
  opts.retain_cycles = false;
  opts.start_cycle = start_cycle;
  opts.start_time = shard.clock;
  const ScheduledApp& app = shard.mix->composed().app();

  // A shard without decorators (no perturbation, pacer or tap: the serve
  // default) runs the step loop over its final concrete types, so every
  // per-step call binds statically. Decorated shards run the same loop
  // over the abstract interfaces.
  if (!shard.pmanager && !shard.pacer && !spec_.tap) {
    shard.clock = run_cyclic_loop(app, *shard.manager, shard.mix->source(),
                                  shard.acc.get(), opts)
                      .total_time;
    return;
  }

  TeeSink tee(shard.acc.get(), spec_.tap);
  opts.sink = spec_.tap ? static_cast<StepSink*>(&tee) : shard.acc.get();
  opts.pacer = shard.pacer.get();

  if (shard.pmanager) {
    // Shard-stall windows overlapping this segment. On the simulated
    // clock they delay the worker in HOST time only — the segment barrier
    // still holds and nothing in the simulated run can observe the sleep,
    // so results are invariant. On a real-time backend the pacer injects
    // the stall into the backend clock per cycle instead (prepare_cycle),
    // where it costs budget; only the count is folded here.
    std::size_t stalled = 0;
    double delay_ms = 0;
    for (const PerturbationWindow& w :
         spec_.perturb.windows_of(FaultKind::kShardStall)) {
      if (w.target != PerturbationWindow::kAllTargets && w.target != shard.index) {
        continue;
      }
      const std::size_t lo = std::max(w.begin_cycle, start_cycle);
      const std::size_t hi = std::min(w.end_cycle, start_cycle + cycles);
      if (lo >= hi) continue;
      stalled += hi - lo;
      delay_ms += w.magnitude * static_cast<double>(hi - lo);
    }
    shard.stall_cycles += stalled;
    if (delay_ms > 0 && !shard.pacer) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
    }
    opts.platform = shard.pplatform->platform();
  }

  QualityManager& manager =
      shard.governed ? static_cast<QualityManager&>(*shard.governed)
      : shard.pmanager ? static_cast<QualityManager&>(*shard.pmanager)
                       : static_cast<QualityManager&>(*shard.manager);
  CyclicTimeSource& source =
      shard.psource ? static_cast<CyclicTimeSource&>(*shard.psource)
                    : shard.mix->source();

  const ArmGuard armed(shard.pacer.get());
  shard.clock = run_cyclic(app, manager, source, opts).total_time;
}

void ShardedServer::run_segment(std::size_t start_cycle, std::size_t cycles) {
  for (Shard& shard : shards_) {
    if (shard.dirty) rebuild_shard(shard);
  }
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(spec_.num_workers == 0
                                            ? shards_.size()
                                            : spec_.num_workers,
                                        shards_.size()));
  // Any exception escaping a shard segment — a throwing sink or tap, an
  // engine contract failure — is wrapped into a ServeError attributing the
  // failing shard, instead of escaping a worker thread to std::terminate.
  if (workers == 1) {
    for (Shard& shard : shards_) {
      try {
        run_shard_segment(shard, start_cycle, cycles);
      } catch (const std::exception& e) {
        throw ServeError(shard.index, start_cycle, e.what());
      } catch (...) {
        throw ServeError(shard.index, start_cycle, "unknown exception");
      }
    }
    return;
  }

  // Static stride assignment: worker w owns shards w, w+W, ... — no shared
  // mutable state between workers, so the partition cannot affect results,
  // only wall time.
  std::vector<std::thread> threads;
  std::exception_ptr failure;
  std::mutex failure_mutex;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([this, w, workers, start_cycle, cycles,
                          &failure, &failure_mutex] {
      for (std::size_t s = w; s < shards_.size(); s += workers) {
        try {
          run_shard_segment(shards_[s], start_cycle, cycles);
        } catch (...) {
          std::exception_ptr wrapped;
          try {
            try {
              throw;
            } catch (const std::exception& e) {
              throw ServeError(s, start_cycle, e.what());
            } catch (...) {
              throw ServeError(s, start_cycle, "unknown exception");
            }
          } catch (...) {
            wrapped = std::current_exception();
          }
          const std::lock_guard<std::mutex> lock(failure_mutex);
          if (!failure) failure = wrapped;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (failure) std::rethrow_exception(failure);
}

ServingSummary ShardedServer::serve() {
  SPEEDQM_REQUIRE(!served_, "ShardedServer: serve() is one-shot");
  served_ = true;

  place_initial_tasks();
  // Hand-written schedules may carry cycle-0 events (generated ones start
  // at cycle 1); they apply right after initial placement. Events at or
  // beyond the horizon never fire. Front-end requests targeting cycle 0
  // apply at the same point, after the schedule's events.
  apply_events(0);
  if (spec_.frontend) {
    spec_.frontend->drain();
    apply_frontend(0);
  }

  // Real-time backends get their pacers up front (they outlive every
  // rebuild) and, on the real wall clock, a host watchdog thread sampling
  // the per-shard heartbeats — its alarms are nondeterministic and only
  // ever reported, never gated.
  const bool realtime = spec_.clock != ClockMode::kSim;
  if (realtime) {
    for (Shard& shard : shards_) ensure_realtime(shard);
  }
  std::unique_ptr<WatchdogThread> host_watchdog;
  if (spec_.clock == ClockMode::kWall) {
    host_watchdog = std::make_unique<WatchdogThread>(WatchdogThreadConfig{});
    for (Shard& shard : shards_) {
      host_watchdog->watch(*shard.pacer,
                           "shard-" + std::to_string(shard.index));
    }
    host_watchdog->start();
  }

  // Wall clock covers serving (segments + mid-run reconfiguration), not
  // pool construction or initial placement: steps_per_second is the
  // data-plane throughput the scaling bench gates.
  const auto wall_start = std::chrono::steady_clock::now();

  // Segment boundaries: every distinct event cycle inside the horizon,
  // plus — under a live governor — a boundary every check_cycles cycles
  // so shed requests and re-admissions are acted on promptly.
  std::vector<std::size_t> boundaries;
  for (const std::size_t cycle : schedule_.boundaries()) {
    if (cycle > 0 && cycle < spec_.cycles) boundaries.push_back(cycle);
  }
  if (realtime && spec_.governor.enabled && spec_.governor.check_cycles > 0) {
    for (std::size_t cycle = spec_.governor.check_cycles;
         cycle < spec_.cycles; cycle += spec_.governor.check_cycles) {
      boundaries.push_back(cycle);
    }
    std::sort(boundaries.begin(), boundaries.end());
    boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                     boundaries.end());
  }
  // Segment loop. Static boundaries advance through `boundaries`; a
  // front-end adds DYNAMIC ones: the ring is drained (control thread) at
  // every barrier and the earliest pending request cycle caps the next
  // segment, so requests mature exactly at their target cycle. With no
  // front-end this reduces to the static walk bit for bit.
  std::size_t cursor = 0;
  std::size_t bi = 0;
  while (cursor < spec_.cycles) {
    std::size_t next = spec_.cycles;
    while (bi < boundaries.size() && boundaries[bi] <= cursor) ++bi;
    if (bi < boundaries.size()) next = std::min(next, boundaries[bi]);
    if (spec_.frontend) {
      spec_.frontend->drain();
      std::size_t request_cycle = 0;
      if (spec_.frontend->next_request_cycle_after(cursor, &request_cycle)) {
        next = std::min(next, std::max(request_cycle, cursor + 1));
      }
    }
    run_segment(cursor, next - cursor);
    cursor = next;
    if (cursor >= spec_.cycles) break;
    if (realtime) apply_governor(cursor);
    apply_events(cursor);
    apply_frontend(cursor);
  }

  const double wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  if (host_watchdog) host_watchdog->stop();

  std::vector<ShardReport> reports;
  reports.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    ShardReport report;
    report.shard = s;
    report.members = members_[s];
    report.summary = shard.acc->finish();
    report.clock = shard.clock;
    report.epochs = shard.epochs + (shard.manager ? shard.manager->epochs() : 0);
    report.rebuilds = shard.rebuilds;
    reports.push_back(std::move(report));
  }
  ServingSummary summary =
      fold_serving_summary(std::move(reports), admissions_, leaves_);
  summary.scripted_disconnects = scripted_disconnects_;
  for (const Shard& shard : shards_) summary.stalled_cycles += shard.stall_cycles;
  summary.shed_tasks = shed_tasks_;
  summary.readmitted_tasks = readmitted_tasks_;
  for (const Shard& shard : shards_) {
    if (!shard.pacer) continue;
    summary.governor_activations += shard.pacer->governor().activations();
    summary.forced_downgrades += shard.pacer->governor().forced_downgrades();
    summary.watchdog_escalations += shard.pacer->watchdog().escalations();
  }
  if (spec_.frontend) {
    // A final drain makes requests enqueued during the run but never
    // matured visible in the pending count.
    spec_.frontend->drain();
    const FrontendStats& fs = spec_.frontend->stats();
    summary.queue_wait_cycles = fs.queue_wait_cycles;
    summary.frontend_requests = fs.drained;
    summary.frontend_applied = frontend_applied_;
    summary.frontend_dropped = frontend_dropped_;
    summary.frontend_late = fs.late;
    summary.frontend_pending = spec_.frontend->pending();
    summary.frontend_rejected = spec_.frontend->queue().rejected();
  }
  if (host_watchdog) summary.hang_alarms = host_watchdog->hang_alarms();
  summary.wall_seconds = wall_seconds;
  if (wall_seconds > 0) {
    summary.steps_per_second =
        static_cast<double>(summary.total_steps) / wall_seconds;
  }
  return summary;
}

}  // namespace speedqm

#include "workload/generator.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace speedqm {

namespace {

// ---------------------------------------------------------------------------
// Stateless draws. Same contract as PerturbationCursor: a draw is a pure
// hash of (seed, stream, index) — no cursor, no order — and no libm enters
// any probability, so the emitted script is bit-stable across platforms,
// consumers and rewinds.
// ---------------------------------------------------------------------------

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t draw(std::uint64_t seed, std::uint64_t stream,
                   std::uint64_t index) {
  return mix64(seed + 0x9e3779b97f4a7c15ULL * (stream + 1) +
               0xbf58476d1ce4e5b9ULL * (index + 1));
}

/// Uniform in [0, 1) from the top 53 bits (exact in double).
double draw01(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  return static_cast<double>(draw(seed, stream, index) >> 11) *
         (1.0 / 9007199254740992.0);
}

constexpr std::uint64_t kStaySalt = 0x73746179ULL;    // "stay"
constexpr std::uint64_t kPhaseSalt = 0x70686173ULL;   // "phas"

[[noreturn]] void spec_fail(const std::string& generator,
                            const std::string& what) {
  throw std::runtime_error("workload generator '" + generator +
                           "': " + what);
}

[[noreturn]] void parse_fail(const std::string& what) {
  throw std::runtime_error("workload spec: " + what);
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    parse_fail("malformed value '" + value + "' for key '" + key + "'");
  }
}

double parse_f64(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    parse_fail("malformed value '" + value + "' for key '" + key + "'");
  }
}

}  // namespace

const char* to_string(WorkloadEventKind kind) {
  switch (kind) {
    case WorkloadEventKind::kJoin: return "join";
    case WorkloadEventKind::kLeave: return "leave";
    case WorkloadEventKind::kFrameCosts: return "frame-costs";
  }
  return "?";
}

void parse_workload_params(const std::string& params, WorkloadSpec& spec) {
  std::size_t pos = 0;
  while (pos < params.size()) {
    std::size_t comma = params.find(',', pos);
    if (comma == std::string::npos) comma = params.size();
    const std::string item = params.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      parse_fail("expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      spec.seed = parse_u64(key, value);
    } else if (key == "cycles") {
      spec.cycles = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "pool") {
      spec.pool_tasks = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "initial") {
      spec.initial_tasks =
          static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "rate") {
      spec.rate = parse_f64(key, value);
    } else if (key == "stay") {
      spec.mean_stay = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "burst-len") {
      spec.burst_len = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "burst") {
      spec.burst_factor = parse_f64(key, value);
    } else if (key == "periods") {
      spec.day_periods =
          static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "period") {
      spec.period = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "duty") {
      spec.duty = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "trace") {
      spec.trace_path = value;
    } else if (key == "budget") {
      spec.frame_budget =
          static_cast<TimeNs>(parse_u64(key, value));
    } else if (key == "tasks") {
      spec.mix.num_tasks =
          static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "factor") {
      spec.mix.budget_factor = parse_f64(key, value);
    } else {
      parse_fail("unknown key '" + key +
                            "' (valid: seed, cycles, pool, initial, rate, "
                            "stay, burst-len, burst, periods, period, duty, "
                            "trace, budget, tasks, factor)");
    }
  }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

std::map<std::string, WorkloadGeneratorFactory>& registry() {
  static std::map<std::string, WorkloadGeneratorFactory> map;
  return map;
}

void ensure_builtins() {
  static const bool once = [] {
    register_workload_generator("mix", [] {
      return std::unique_ptr<WorkloadGenerator>(new MixAdapterGenerator());
    });
    register_workload_generator("trace-replay", [] {
      return std::unique_ptr<WorkloadGenerator>(new TraceReplayGenerator());
    });
    register_workload_generator("poisson", [] {
      return std::unique_ptr<WorkloadGenerator>(new StochasticArrivalGenerator(
          StochasticArrivalGenerator::Process::kPoisson));
    });
    register_workload_generator("bursty", [] {
      return std::unique_ptr<WorkloadGenerator>(new StochasticArrivalGenerator(
          StochasticArrivalGenerator::Process::kBursty));
    });
    register_workload_generator("diurnal", [] {
      return std::unique_ptr<WorkloadGenerator>(new StochasticArrivalGenerator(
          StochasticArrivalGenerator::Process::kDiurnal));
    });
    register_workload_generator("checkpoint", [] {
      return std::unique_ptr<WorkloadGenerator>(
          new PeriodicCheckpointGenerator());
    });
    return true;
  }();
  (void)once;
}

}  // namespace

void register_workload_generator(const std::string& name,
                                 WorkloadGeneratorFactory factory) {
  if (name.empty() || factory == nullptr) {
    throw std::runtime_error(
        "register_workload_generator: empty name or null factory");
  }
  registry()[name] = factory;
}

std::vector<std::string> workload_generator_names() {
  ensure_builtins();
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& entry : registry()) names.push_back(entry.first);
  return names;
}

std::unique_ptr<WorkloadGenerator> make_workload_generator(
    const std::string& name) {
  ensure_builtins();
  const auto it = registry().find(name);
  if (it == registry().end()) {
    std::string valid;
    for (const auto& entry : registry()) {
      if (!valid.empty()) valid += ", ";
      valid += entry.first;
    }
    throw std::runtime_error("unknown workload generator '" + name +
                             "' (registered: " + valid + ")");
  }
  return it->second();
}

std::unique_ptr<WorkloadGenerator> open_workload_generator(
    const std::string& name, const WorkloadSpec& spec) {
  auto gen = make_workload_generator(name);
  gen->open(spec);
  return gen;
}

// ---------------------------------------------------------------------------
// Consumers
// ---------------------------------------------------------------------------

ArrivalSchedule drain_arrival_schedule(WorkloadGenerator& gen) {
  if (!gen.emits_arrivals()) {
    throw std::runtime_error("drain_arrival_schedule: generator '" +
                             gen.name() +
                             "' emits frame costs, not arrivals");
  }
  gen.rewind();
  std::vector<ArrivalEvent> events;
  WorkloadEvent e;
  while (gen.next_event(e)) {
    events.push_back(ArrivalEvent{e.cycle, e.task,
                                  e.kind == WorkloadEventKind::kJoin});
  }
  return ArrivalSchedule(std::move(events), gen.spec().pool_tasks,
                         gen.spec().initial_tasks);
}

GeneratorTimeSource::GeneratorTimeSource(WorkloadGenerator& gen,
                                         std::size_t horizon,
                                         ActionIndex num_actions,
                                         int num_levels)
    : gen_(&gen), horizon_(horizon), num_actions_(num_actions),
      num_levels_(num_levels) {
  if (gen.emits_arrivals()) {
    throw std::runtime_error("GeneratorTimeSource: generator '" + gen.name() +
                             "' emits arrivals, not frame costs");
  }
  if (horizon == 0) {
    throw std::runtime_error("GeneratorTimeSource: zero horizon");
  }
  if (num_actions == 0 || num_levels <= 0) {
    throw std::runtime_error("GeneratorTimeSource: empty frame geometry");
  }
}

void GeneratorTimeSource::pull_next() {
  if (!gen_->next_event(event_)) {
    throw std::runtime_error("GeneratorTimeSource: stream of '" +
                             gen_->name() + "' ended before cycle " +
                             std::to_string(current_cycle_));
  }
  if (event_.kind != WorkloadEventKind::kFrameCosts) {
    throw std::runtime_error("GeneratorTimeSource: unexpected " +
                             std::string(to_string(event_.kind)) + " event");
  }
  if (event_.num_actions != num_actions_ ||
      event_.num_levels != num_levels_) {
    throw std::runtime_error(
        "GeneratorTimeSource: stream of '" + gen_->name() + "' carries " +
        std::to_string(event_.num_actions) + "x" +
        std::to_string(event_.num_levels) +
        " frames but the consuming app is " + std::to_string(num_actions_) +
        " actions x " + std::to_string(num_levels_) +
        " levels (trace/mix recorded for a different task set?)");
  }
  have_event_ = true;
}

void GeneratorTimeSource::set_cycle(std::size_t cycle) {
  current_cycle_ = cycle;
  if (have_event_ && event_.cycle == cycle) return;
  if (have_event_ && event_.cycle > cycle) {
    // Backward jump (content wrap): restart the stream and skip forward.
    gen_->rewind();
    have_event_ = false;
  }
  do {
    pull_next();
  } while (event_.cycle < cycle);
  if (event_.cycle != cycle) {
    throw std::runtime_error("GeneratorTimeSource: stream of '" +
                             gen_->name() + "' skipped cycle " +
                             std::to_string(cycle));
  }
}

TimeNs GeneratorTimeSource::actual_time(ActionIndex i, Quality q) {
  if (!have_event_) {
    throw std::runtime_error("GeneratorTimeSource: read before set_cycle");
  }
  if (i >= num_actions_ || q < 0 || q >= num_levels_) {
    throw std::runtime_error(
        "GeneratorTimeSource: read (" + std::to_string(i) + ", " +
        std::to_string(q) + ") outside the " + std::to_string(num_actions_) +
        "x" + std::to_string(num_levels_) + " frame");
  }
  return event_.costs[static_cast<std::size_t>(i) *
                          static_cast<std::size_t>(event_.num_levels) +
                      static_cast<std::size_t>(q)];
}

// ---------------------------------------------------------------------------
// MixAdapterGenerator ("mix")
// ---------------------------------------------------------------------------

const std::string& MixAdapterGenerator::name() const {
  static const std::string n = "mix";
  return n;
}

void MixAdapterGenerator::open(const WorkloadSpec& spec) {
  if (spec.cycles == 0) spec_fail("mix", "zero-cycle horizon");
  if (spec.mix.num_tasks == 0) spec_fail("mix", "empty mix");
  spec_ = spec;
  mix_ = std::make_unique<MultiTaskMix>(spec.mix);
  cycles_ = spec.cycles;
  next_cycle_ = 0;
  frame_.assign(mix_->composed().app().size() *
                    static_cast<std::size_t>(
                        mix_->composed().num_levels()),
                0);
}

bool MixAdapterGenerator::next_event(WorkloadEvent& out) {
  if (!mix_) spec_fail("mix", "next_event before open");
  if (next_cycle_ >= cycles_) return false;
  ComposedCyclicSource& src = mix_->source();
  src.set_cycle(next_cycle_ % src.num_cycles());
  const ActionIndex n = mix_->composed().app().size();
  const int nq = mix_->composed().num_levels();
  for (ActionIndex i = 0; i < n; ++i) {
    for (Quality q = 0; q < nq; ++q) {
      frame_[static_cast<std::size_t>(i) * static_cast<std::size_t>(nq) +
             static_cast<std::size_t>(q)] = src.actual_time(i, q);
    }
  }
  out.kind = WorkloadEventKind::kFrameCosts;
  out.cycle = next_cycle_++;
  out.task = 0;
  out.costs = frame_.data();
  out.num_actions = n;
  out.num_levels = nq;
  return true;
}

void MixAdapterGenerator::rewind() {
  if (!mix_) spec_fail("mix", "rewind before open");
  next_cycle_ = 0;
}

std::size_t MixAdapterGenerator::memory_bytes() const {
  return frame_.capacity() * sizeof(TimeNs);
}

// ---------------------------------------------------------------------------
// TraceReplayGenerator ("trace-replay")
// ---------------------------------------------------------------------------

const std::string& TraceReplayGenerator::name() const {
  static const std::string n = "trace-replay";
  return n;
}

void TraceReplayGenerator::open(const WorkloadSpec& spec) {
  if (spec.trace_path.empty()) spec_fail("trace-replay", "no trace path");
  if (spec.frame_budget < 0) spec_fail("trace-replay", "negative frame budget");
  spec_ = spec;
  reader_ = std::make_unique<TraceStreamReader>(spec.trace_path);
  frame_budget_ = spec.frame_budget;
  // Horizon 0 means "one pass over the recording"; longer horizons replay
  // the content cyclically, re-validating each pass (the file might be
  // swapped under us — streaming reads whatever is there now).
  cycles_ = spec.cycles > 0 ? spec.cycles : reader_->num_cycles();
  next_cycle_ = 0;
}

void TraceReplayGenerator::validate_frame(std::size_t cycle) const {
  const ActionIndex n = reader_->num_actions();
  const int nq = reader_->num_levels();
  const std::string where =
      spec_.trace_path + " cycle " + std::to_string(cycle);
  TimeNs qmin_total = 0;
  for (ActionIndex i = 0; i < n; ++i) {
    const std::size_t row =
        static_cast<std::size_t>(i) * static_cast<std::size_t>(nq);
    TimeNs prev = 0;
    for (Quality q = 0; q < nq; ++q) {
      const TimeNs v = frame_[row + static_cast<std::size_t>(q)];
      if (v < 0) {
        spec_fail("trace-replay", where + ": negative cost at action " +
                                      std::to_string(i) + " quality " +
                                      std::to_string(q));
      }
      if (q > 0 && v < prev) {
        spec_fail("trace-replay",
                  where + ": frame times non-monotone in quality at action " +
                      std::to_string(i) + " (q" + std::to_string(q) + " " +
                      std::to_string(v) + " < q" + std::to_string(q - 1) +
                      " " + std::to_string(prev) + ")");
      }
      prev = v;
    }
    qmin_total += frame_[row];
  }
  if (qmin_total == 0) {
    spec_fail("trace-replay", where + ": zero-cost frame (no content)");
  }
  if (frame_budget_ > 0 && qmin_total > frame_budget_) {
    spec_fail("trace-replay",
              where + ": min-quality frame total " +
                  std::to_string(qmin_total) + " ns exceeds the " +
                  std::to_string(frame_budget_) + " ns frame budget");
  }
}

bool TraceReplayGenerator::next_event(WorkloadEvent& out) {
  if (!reader_) spec_fail("trace-replay", "next_event before open");
  if (next_cycle_ >= cycles_) return false;
  const std::size_t inner = next_cycle_ % reader_->num_cycles();
  if (inner == 0 && reader_->cycles_read() > 0) reader_->rewind();
  if (!reader_->next_frame(frame_)) {
    spec_fail("trace-replay", spec_.trace_path + ": stream ended at cycle " +
                                  std::to_string(next_cycle_));
  }
  validate_frame(next_cycle_);
  out.kind = WorkloadEventKind::kFrameCosts;
  out.cycle = next_cycle_++;
  out.task = 0;
  out.costs = frame_.data();
  out.num_actions = reader_->num_actions();
  out.num_levels = reader_->num_levels();
  return true;
}

void TraceReplayGenerator::rewind() {
  if (!reader_) spec_fail("trace-replay", "rewind before open");
  reader_->rewind();
  next_cycle_ = 0;
}

std::size_t TraceReplayGenerator::memory_bytes() const {
  // One frame resident, whatever the trace length — the O(1) streaming
  // shape the bench gates.
  return frame_.capacity() * sizeof(TimeNs);
}

// ---------------------------------------------------------------------------
// StochasticArrivalGenerator ("poisson" / "bursty" / "diurnal")
// ---------------------------------------------------------------------------

StochasticArrivalGenerator::StochasticArrivalGenerator(Process process)
    : process_(process) {}

const std::string& StochasticArrivalGenerator::name() const {
  static const std::string poisson = "poisson";
  static const std::string bursty = "bursty";
  static const std::string diurnal = "diurnal";
  switch (process_) {
    case Process::kPoisson: return poisson;
    case Process::kBursty: return bursty;
    case Process::kDiurnal: return diurnal;
  }
  return poisson;
}

double StochasticArrivalGenerator::intensity(std::size_t cycle,
                                             const WorkloadSpec& spec) const {
  switch (process_) {
    case Process::kPoisson:
      return 1.0;
    case Process::kBursty: {
      // MMPP-style on-off: phase blocks of burst_len cycles, each block
      // on/off by a stateless coin; on-phases run burst_factor times the
      // base hazard, off-phases run a trickle.
      const std::uint64_t block = cycle / spec.burst_len;
      const bool on = (draw(spec.seed ^ kPhaseSalt, 0, block) & 1) != 0;
      return on ? spec.burst_factor : 0.25;
    }
    case Process::kDiurnal: {
      // Piecewise-linear day curve (triangle peaking at midday) — rational
      // arithmetic only, no libm, so the script is bit-stable everywhere.
      const std::size_t day =
          std::max<std::size_t>(2, spec.cycles / spec.day_periods);
      const double x = static_cast<double>(cycle % day) /
                       static_cast<double>(day);  // in [0, 1)
      const double tri = 1.0 - (x < 0.5 ? (1.0 - 2.0 * x) : (2.0 * x - 1.0));
      return 0.15 + 2.7 * tri;
    }
  }
  return 1.0;
}

void StochasticArrivalGenerator::open(const WorkloadSpec& spec) {
  if (spec.pool_tasks == 0) spec_fail(name(), "empty pool");
  if (spec.initial_tasks > spec.pool_tasks) {
    spec_fail(name(), "more initial tasks than the pool holds");
  }
  if (spec.cycles < 2) spec_fail(name(), "need >= 2 cycles to place events");
  if (!(spec.rate > 0)) spec_fail(name(), "non-positive session rate");
  if (spec.mean_stay == 0) spec_fail(name(), "zero mean session length");
  if (process_ == Process::kBursty && spec.burst_len == 0) {
    spec_fail(name(), "zero burst length");
  }
  if (process_ == Process::kBursty && !(spec.burst_factor >= 1.0)) {
    spec_fail(name(), "burst factor below 1");
  }
  if (process_ == Process::kDiurnal && spec.day_periods == 0) {
    spec_fail(name(), "zero day periods");
  }
  spec_ = spec;
  events_.clear();
  next_ = 0;

  // Session renewal walk per pool task: absent tasks face a per-cycle join
  // hazard shaped by the process intensity; a joining task draws an
  // integer-uniform stay in [1, 2*mean_stay - 1] (mean ≈ mean_stay) and
  // leaves when it expires. Every draw is a pure (seed, task, cycle) hash,
  // so the walk — and therefore the script — is a pure function of the
  // spec.
  const double hazard = spec.rate / static_cast<double>(spec.cycles);
  for (std::size_t task = spec.initial_tasks; task < spec.pool_tasks; ++task) {
    bool present = false;
    std::size_t leave_at = 0;
    for (std::size_t cycle = 1; cycle < spec.cycles; ++cycle) {
      if (present) {
        if (cycle == leave_at) {
          events_.push_back(ArrivalEvent{cycle, task, /*join=*/false});
          present = false;
        }
        continue;
      }
      const double p =
          std::min(0.9, hazard * intensity(cycle, spec));
      if (draw01(spec.seed, task, cycle) < p) {
        events_.push_back(ArrivalEvent{cycle, task, /*join=*/true});
        const std::size_t stay =
            1 + static_cast<std::size_t>(draw(spec.seed ^ kStaySalt, task,
                                              cycle) %
                                         (2 * spec.mean_stay - 1));
        leave_at = cycle + stay;
        present = true;
      }
    }
  }
  // Stream order: by cycle, stable — per-task cycles are strictly
  // increasing, so each task's join/leave alternation survives the sort
  // and the drained ArrivalSchedule validates by construction.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const ArrivalEvent& a, const ArrivalEvent& b) {
                     return a.cycle < b.cycle;
                   });
}

bool StochasticArrivalGenerator::next_event(WorkloadEvent& out) {
  if (next_ >= events_.size()) return false;
  const ArrivalEvent& e = events_[next_++];
  out.kind = e.join ? WorkloadEventKind::kJoin : WorkloadEventKind::kLeave;
  out.cycle = e.cycle;
  out.task = e.task;
  out.costs = nullptr;
  out.num_actions = 0;
  out.num_levels = 0;
  return true;
}

void StochasticArrivalGenerator::rewind() { next_ = 0; }

std::size_t StochasticArrivalGenerator::memory_bytes() const {
  return events_.capacity() * sizeof(ArrivalEvent);
}

// ---------------------------------------------------------------------------
// PeriodicCheckpointGenerator ("checkpoint")
// ---------------------------------------------------------------------------

const std::string& PeriodicCheckpointGenerator::name() const {
  static const std::string n = "checkpoint";
  return n;
}

void PeriodicCheckpointGenerator::open(const WorkloadSpec& spec) {
  if (spec.pool_tasks == 0) spec_fail("checkpoint", "empty pool");
  if (spec.initial_tasks > spec.pool_tasks) {
    spec_fail("checkpoint", "more initial tasks than the pool holds");
  }
  if (spec.cycles < 2) {
    spec_fail("checkpoint", "need >= 2 cycles to place events");
  }
  if (spec.period < 2) spec_fail("checkpoint", "period below 2 cycles");
  if (spec.duty == 0 || spec.duty >= spec.period) {
    spec_fail("checkpoint", "duty must be in [1, period)");
  }
  spec_ = spec;
  events_.clear();
  next_ = 0;

  // Each session task checkpoints every `period` cycles at a seeded phase:
  // join (start writing), stay `duty` cycles, leave. duty < period keeps
  // each task's join/leave alternation valid; phases are stateless
  // per-task draws so the stagger replays identically.
  for (std::size_t task = spec.initial_tasks; task < spec.pool_tasks; ++task) {
    const std::size_t phase =
        1 + static_cast<std::size_t>(draw(spec.seed, task, 0) % spec.period);
    for (std::size_t c = phase; c < spec.cycles; c += spec.period) {
      events_.push_back(ArrivalEvent{c, task, /*join=*/true});
      const std::size_t leave = c + spec.duty;
      if (leave >= spec.cycles) break;  // horizon ends mid-checkpoint
      events_.push_back(ArrivalEvent{leave, task, /*join=*/false});
    }
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const ArrivalEvent& a, const ArrivalEvent& b) {
                     return a.cycle < b.cycle;
                   });
}

bool PeriodicCheckpointGenerator::next_event(WorkloadEvent& out) {
  if (next_ >= events_.size()) return false;
  const ArrivalEvent& e = events_[next_++];
  out.kind = e.join ? WorkloadEventKind::kJoin : WorkloadEventKind::kLeave;
  out.cycle = e.cycle;
  out.task = e.task;
  out.costs = nullptr;
  out.num_actions = 0;
  out.num_levels = 0;
  return true;
}

void PeriodicCheckpointGenerator::rewind() { next_ = 0; }

std::size_t PeriodicCheckpointGenerator::memory_bytes() const {
  return events_.capacity() * sizeof(ArrivalEvent);
}

}  // namespace speedqm

// Tracing for the layer replay: spans recorded around every layer call the
// replay makes, plus timing decorators for the per-step layers.
//
// Coarse layer calls (pool build, one admission, one shard rebuild, one
// shard segment, a barrier, the fold, teardown) each get a span with a
// name, a start, an end, its parent span and the thread that ran it. Spans
// stay in memory and are written out as Chrome trace-event JSON when the
// run ends.
//
// Per-step calls (a manager decision, a content lookup, a summary fold) run
// tens of millions of times per replay, so they are not spans: the
// decorators below time every call and add it to per-shard counters, and
// the calibrated cost of the clock reads is subtracted when the counters
// are turned into per-call figures.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "sim/executor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;  ///< -1 for a root span
  unsigned thread = 0;  ///< 0 = control thread, w + 1 = worker w

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Thread-safe in-memory span store.
class Tracer {
 public:
  int begin(const char* name, int parent, unsigned thread);
  void end(int id);
  /// Snapshot of every span recorded so far, in begin order.
  std::vector<Span> spans() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span; a no-op when the tracer is null (the untraced replay).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent,
             unsigned thread = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(name, parent, thread) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Per-shard per-step counters: raw host time of every timed call,
/// clock reads included (see timer_cost_ns).
struct StepCounters {
  std::uint64_t refreshes = 0;     ///< decide calls that ran an epoch sweep
  std::uint64_t cached_calls = 0;  ///< decide calls served from the cache
  std::uint64_t lookups = 0;       ///< actual_time calls
  std::uint64_t sink_calls = 0;    ///< on_step + on_cycle calls
  std::int64_t refresh_ns = 0;
  std::int64_t cached_ns = 0;
  std::int64_t lookup_ns = 0;
  std::int64_t sink_ns = 0;
  std::vector<float> refresh_samples;  ///< raw ns of every epoch sweep

  std::uint64_t timed_calls() const {
    return refreshes + cached_calls + lookups + sink_calls;
  }
};

/// Host time one timed call adds inside its measured interval: the mean
/// interval between two back-to-back clock reads. A timed call costs the
/// caller about twice this (two reads), half of it outside the interval.
double timer_cost_ns();

/// Times every decide() of a batched epoch manager; a call that advanced
/// the manager's epoch count ran a sweep, any other was served cached.
class TimedManager final : public speedqm::QualityManager {
 public:
  TimedManager(speedqm::MultiTaskEpochManager& inner, StepCounters& counters)
      : inner_(inner), counters_(counters) {}

  speedqm::Decision decide(speedqm::StateIndex s, speedqm::TimeNs t) override;
  std::string name() const override { return inner_.name(); }
  std::size_t memory_bytes() const override { return inner_.memory_bytes(); }
  std::size_t num_table_integers() const override {
    return inner_.num_table_integers();
  }
  void reset() override { inner_.reset(); }

 private:
  speedqm::MultiTaskEpochManager& inner_;
  StepCounters& counters_;
};

/// Times every actual_time() lookup of a shard's content source.
class TimedSource final : public speedqm::CyclicTimeSource {
 public:
  TimedSource(speedqm::CyclicTimeSource& inner, StepCounters& counters)
      : inner_(inner), counters_(counters) {}

  void set_cycle(std::size_t cycle) override { inner_.set_cycle(cycle); }
  std::size_t num_cycles() const override { return inner_.num_cycles(); }
  speedqm::TimeNs actual_time(speedqm::ActionIndex i,
                              speedqm::Quality q) override;

 private:
  speedqm::CyclicTimeSource& inner_;
  StepCounters& counters_;
};

/// Times every step and cycle fold of a shard's summary accumulator.
class TimedSink final : public speedqm::StepSink {
 public:
  TimedSink(speedqm::StepSink& inner, StepCounters& counters)
      : inner_(inner), counters_(counters) {}

  void on_step(const speedqm::ExecStep& step) override;
  void on_cycle(const speedqm::CycleStats& cycle) override;
  bool want_stop() const override { return inner_.want_stop(); }

 private:
  speedqm::StepSink& inner_;
  StepCounters& counters_;
};

/// Median of a sample (0 when empty).
double median(std::vector<double> values);
/// The highest percentile with at least ten samples beyond it: the 11th
/// largest value, i.e. percentile 100 * (n - 10) / n. With 20 samples or
/// fewer that percentile is not above the median, and the maximum is
/// returned instead.
double tail(std::vector<double> values);

/// Writes the spans of several replays as Chrome trace-event JSON
/// (viewable in Perfetto), one process lane per replay. False when the
/// file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<std::vector<Span>>& replays);

}  // namespace perfbench

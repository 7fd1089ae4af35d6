#include "layer_trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

using namespace speedqm;

namespace {

std::int64_t elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
      .count();
}

}  // namespace

int Tracer::begin(const char* name, int parent, unsigned thread) {
  const std::int64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.start_ns = start;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.thread = thread;
  spans_.push_back(span);
  return span.id;
}

void Tracer::end(int id) {
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double timer_cost_ns() {
  // Median over batches of the mean interval between back-to-back reads.
  constexpr int kBatches = 31;
  constexpr int kPairs = 20000;
  std::vector<double> batch_means;
  batch_means.reserve(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    std::int64_t total = 0;
    for (int i = 0; i < kPairs; ++i) {
      const auto t0 = Clock::now();
      const auto t1 = Clock::now();
      total += elapsed_ns(t0, t1);
    }
    batch_means.push_back(static_cast<double>(total) / kPairs);
  }
  return median(std::move(batch_means));
}

Decision TimedManager::decide(StateIndex s, TimeNs t) {
  const std::size_t epochs_before = inner_.epochs();
  const auto t0 = Clock::now();
  const Decision d = inner_.decide(s, t);
  const auto t1 = Clock::now();
  const std::int64_t ns = elapsed_ns(t0, t1);
  if (inner_.epochs() != epochs_before) {
    ++counters_.refreshes;
    counters_.refresh_ns += ns;
    counters_.refresh_samples.push_back(static_cast<float>(ns));
  } else {
    ++counters_.cached_calls;
    counters_.cached_ns += ns;
  }
  return d;
}

TimeNs TimedSource::actual_time(ActionIndex i, Quality q) {
  const auto t0 = Clock::now();
  const TimeNs v = inner_.actual_time(i, q);
  const auto t1 = Clock::now();
  ++counters_.lookups;
  counters_.lookup_ns += elapsed_ns(t0, t1);
  return v;
}

void TimedSink::on_step(const ExecStep& step) {
  const auto t0 = Clock::now();
  inner_.on_step(step);
  const auto t1 = Clock::now();
  ++counters_.sink_calls;
  counters_.sink_ns += elapsed_ns(t0, t1);
}

void TimedSink::on_cycle(const CycleStats& cycle) {
  const auto t0 = Clock::now();
  inner_.on_cycle(cycle);
  const auto t1 = Clock::now();
  ++counters_.sink_calls;
  counters_.sink_ns += elapsed_ns(t0, t1);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double tail(std::vector<double> values) {
  if (values.empty()) return 0;
  if (values.size() <= 20) {
    return *std::max_element(values.begin(), values.end());
  }
  const std::size_t rank = values.size() - 11;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<std::vector<Span>>& replays) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  const char* sep = "\n";
  for (std::size_t r = 0; r < replays.size(); ++r) {
    if (replays[r].empty()) continue;
    const std::int64_t origin = replays[r].front().start_ns;
    for (const Span& s : replays[r]) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%zu,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%d,\"parent\":%d}}",
                   sep, s.name, r + 1, s.thread,
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id,
                   s.parent);
      sep = ",\n";
    }
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#include "workload/trace_source.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "support/contract.hpp"

namespace speedqm {

TraceTimeSource::TraceTimeSource(ActionIndex num_actions, int num_levels,
                                 std::vector<std::vector<TimeNs>> data)
    : n_(num_actions), nq_(num_levels), data_(std::move(data)) {
  SPEEDQM_REQUIRE(n_ > 0 && nq_ > 0, "TraceTimeSource: empty dimensions");
  SPEEDQM_REQUIRE(!data_.empty(), "TraceTimeSource: no cycles");
  const std::size_t expected = n_ * static_cast<std::size_t>(nq_);
  for (const auto& cycle : data_) {
    SPEEDQM_REQUIRE(cycle.size() == expected, "TraceTimeSource: cycle size mismatch");
  }
}

void TraceTimeSource::set_cycle(std::size_t cycle) {
  SPEEDQM_REQUIRE(cycle < data_.size(), "TraceTimeSource: cycle out of range");
  current_cycle_ = cycle;
}

TimeNs TraceTimeSource::actual_time(ActionIndex i, Quality q) {
  return at(current_cycle_, i, q);
}

const TimeNs* TraceTimeSource::cycle_table(std::size_t cycle) const {
  SPEEDQM_REQUIRE(cycle < data_.size(), "TraceTimeSource: cycle out of range");
  return data_[cycle].data();
}

TimeNs TraceTimeSource::at(std::size_t cycle, ActionIndex i, Quality q) const {
  SPEEDQM_REQUIRE(cycle < data_.size(), "TraceTimeSource: cycle out of range");
  SPEEDQM_REQUIRE(i < n_, "TraceTimeSource: action out of range");
  SPEEDQM_REQUIRE(q >= 0 && q < nq_, "TraceTimeSource: quality out of range");
  return data_[cycle][i * static_cast<std::size_t>(nq_) + static_cast<std::size_t>(q)];
}

ComposedCyclicSource::ComposedCyclicSource(
    const ComposedSystem& system, std::vector<const TraceTimeSource*> sources)
    : sources_(std::move(sources)), nq_(system.num_levels()) {
  SPEEDQM_REQUIRE(sources_.size() == system.num_tasks(),
                  "ComposedCyclicSource: one source per task required");
  // Joint content period, computed once (the executor queries it every
  // cycle): the LCM of per-task trace lengths — anything shorter would
  // replay shorter tasks' content non-uniformly under the executor's
  // pre-mod (a double mod by incommensurate lengths).
  constexpr std::size_t kCap = std::size_t{1} << 20;
  std::size_t cycles = 1;
  std::size_t longest = 1;
  bool capped = false;
  for (std::size_t task = 0; task < sources_.size(); ++task) {
    const TraceTimeSource* s = sources_[task];
    SPEEDQM_REQUIRE(s != nullptr && s->num_cycles() >= 1,
                    "ComposedCyclicSource: null or empty source");
    // Checked in every build: the flat index below reads rows unchecked.
    if (s->num_actions() != system.task_size(task) || s->num_levels() != nq_) {
      throw contract_error(
          "ComposedCyclicSource: trace shape does not match its task");
    }
    const std::size_t n = s->num_cycles();
    longest = std::max(longest, n);
    if (!capped) {
      const std::size_t reduced = cycles / std::gcd(cycles, n);
      if (reduced > kCap / n) {
        capped = true;
      } else {
        cycles = reduced * n;
      }
    }
  }
  num_cycles_ = capped ? longest : cycles;

  constexpr std::size_t kSlotMax = std::numeric_limits<std::uint32_t>::max();
  slots_.reserve(system.app().size());
  for (ActionIndex i = 0; i < system.app().size(); ++i) {
    const TaskRef& ref = system.origin(i);
    const std::size_t offset = ref.local_action * static_cast<std::size_t>(nq_);
    if (ref.task > kSlotMax || offset > kSlotMax) {
      throw contract_error(
          "ComposedCyclicSource: composition too large to index");
    }
    slots_.push_back({static_cast<std::uint32_t>(ref.task),
                      static_cast<std::uint32_t>(offset)});
  }
  rows_.resize(sources_.size());
  set_cycle(0);
}

void ComposedCyclicSource::set_cycle(std::size_t cycle) {
  for (std::size_t task = 0; task < sources_.size(); ++task) {
    const TraceTimeSource& s = *sources_[task];
    rows_[task] = s.cycle_table(cycle % s.num_cycles());
  }
}

std::size_t TraceTimeSource::count_contract_violations(const TimingModel& tm) const {
  SPEEDQM_REQUIRE(tm.num_actions() == n_ && tm.num_levels() == nq_,
                  "count_contract_violations: model shape mismatch");
  std::size_t violations = 0;
  for (std::size_t c = 0; c < data_.size(); ++c) {
    for (ActionIndex i = 0; i < n_; ++i) {
      for (Quality q = 0; q < nq_; ++q) {
        const TimeNs v = at(c, i, q);
        if (v < 0 || v > tm.cwc(i, q)) ++violations;
        if (q > 0 && v < at(c, i, q - 1)) ++violations;
      }
    }
  }
  return violations;
}

}  // namespace speedqm

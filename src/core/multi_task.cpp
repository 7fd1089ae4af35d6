#include "core/multi_task.hpp"

#include "support/contract.hpp"

namespace speedqm {

ComposedSystem::ComposedSystem(std::vector<TaskSpec> tasks, ScheduledApp app,
                               std::vector<TaskRef> mapping)
    : tasks_(std::move(tasks)),
      app_(std::move(app)),
      mapping_(std::move(mapping)) {
  SPEEDQM_REQUIRE(!tasks_.empty(), "ComposedSystem: need at least one task");
  SPEEDQM_ASSERT(mapping_.size() == app_.size(), "ComposedSystem: bad mapping");
  composite_of_.resize(tasks_.size());
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    composite_of_[t].resize(tasks_[t].app->size());
  }
  for (ActionIndex i = 0; i < mapping_.size(); ++i) {
    const TaskRef& ref = mapping_[i];
    SPEEDQM_REQUIRE(ref.task < tasks_.size() &&
                        ref.local_action < composite_of_[ref.task].size(),
                    "ComposedSystem: mapping names no task action");
    composite_of_[ref.task][ref.local_action] = i;
  }
}

const TimingModel& ComposedSystem::timing() const {
  std::call_once(timing_->once, [this] {
    // The tasks' rows copied straight into two flat arrays, in composite
    // order.
    const auto nq = static_cast<std::size_t>(num_levels());
    const ActionIndex n = mapping_.size();
    std::vector<TimeNs> cav(n * nq);
    std::vector<TimeNs> cwc(n * nq);
    for (ActionIndex i = 0; i < n; ++i) {
      const TaskRef& ref = mapping_[i];
      const TimingModel& tm = *tasks_[ref.task].timing;
      for (std::size_t q = 0; q < nq; ++q) {
        const auto qq = static_cast<Quality>(q);
        cav[i * nq + q] = tm.cav_unchecked(ref.local_action, qq);
        cwc[i * nq + q] = tm.cwc_unchecked(ref.local_action, qq);
      }
    }
    timing_->model = std::make_unique<const TimingModel>(
        n, num_levels(), std::move(cav), std::move(cwc));
  });
  return *timing_->model;
}

ActionIndex ComposedSystem::composite_index(std::size_t task,
                                            ActionIndex local) const {
  // Hot in the batched decision path: contract-checked in checked builds,
  // unchecked indexing under NDEBUG (no double bounds check).
  SPEEDQM_REQUIRE(task < tasks_.size(), "composite_index: task out of range");
  SPEEDQM_REQUIRE(local < composite_of_[task].size(),
                  "composite_index: local action out of range");
  return composite_of_[task][local];
}

std::vector<double> ComposedSystem::per_task_quality(
    const CycleResult& run) const {
  SPEEDQM_REQUIRE(run.steps.size() == app_.size(),
                  "per_task_quality: run does not match composition");
  std::vector<double> sum(tasks_.size(), 0.0);
  std::vector<std::size_t> count(tasks_.size(), 0);
  for (const auto& step : run.steps) {
    const TaskRef& ref = mapping_[step.action];
    sum[ref.task] += static_cast<double>(step.quality);
    ++count[ref.task];
  }
  for (std::size_t t = 0; t < sum.size(); ++t) {
    if (count[t]) sum[t] /= static_cast<double>(count[t]);
  }
  return sum;
}

ComposedSystem compose_tasks(std::vector<TaskSpec> tasks) {
  SPEEDQM_REQUIRE(!tasks.empty(), "compose_tasks: need at least one task");
  const int nq = tasks.front().timing->num_levels();
  ActionIndex total = 0;
  for (const auto& t : tasks) {
    SPEEDQM_REQUIRE(t.app != nullptr && t.timing != nullptr,
                    "compose_tasks: null task members");
    SPEEDQM_REQUIRE(t.app->size() == t.timing->num_actions(),
                    "compose_tasks: app/timing size mismatch");
    SPEEDQM_REQUIRE(t.timing->num_levels() == nq,
                    "compose_tasks: tasks must share the quality level count");
    total += t.app->size();
  }

  std::vector<std::string> names(total);
  std::vector<TimeNs> deadlines(total);
  std::vector<TaskRef> mapping(total);

  // Proportional-fair interleave: repeatedly emit the next action of the
  // task with the smallest completed fraction next/size (ties: lowest task
  // index — deterministic). A T-way merge: a binary min-heap holds one head
  // per unfinished task, ordered by (fraction, task), so each emission
  // costs one O(log T) sift. Fractions are compared as the double
  // next/size: equal fractions (1/2, 2/4) are equal doubles, so exact ties
  // fall to the lower task index.
  struct Head {
    double fraction;
    std::size_t task;
  };
  // Bitwise, not short-circuit: the sift below stays free of branches
  // that flip with the data.
  const auto before = [](const Head& a, const Head& b) {
    return (a.fraction < b.fraction) |
           ((a.fraction == b.fraction) & (a.task < b.task));
  };
  // Every task starts at fraction 0, so task order is already heap order.
  std::vector<Head> heap(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) heap[t] = Head{0.0, t};
  std::vector<ActionIndex> next(tasks.size(), 0);

  for (ActionIndex i = 0; i < total; ++i) {
    SPEEDQM_ASSERT(!heap.empty(), "compose_tasks: interleave exhausted");
    const std::size_t pick = heap.front().task;
    const auto& task = tasks[pick];
    const ActionIndex local = next[pick]++;

    // Re-key the emitted head, or retire it and move the last head up;
    // then sift it down from the root.
    Head moving{static_cast<double>(next[pick]) /
                    static_cast<double>(task.app->size()),
                pick};
    if (next[pick] == task.app->size()) {
      moving = heap.back();
      heap.pop_back();
    }
    const std::size_t live = heap.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < live; child = 2 * hole + 1) {
      const std::size_t right = child + 1 < live ? child + 1 : child;
      child += static_cast<std::size_t>(before(heap[right], heap[child]));
      if (!before(heap[child], moving)) break;
      heap[hole] = heap[child];
      hole = child;
    }
    if (live > 0) heap[hole] = moving;

    const std::string& local_name = task.app->name(local);
    std::string& name = names[i];
    name.reserve(task.name.size() + 1 + local_name.size());
    name.append(task.name).append(1, '/').append(local_name);
    deadlines[i] = task.app->deadline(local);
    mapping[i] = TaskRef{pick, local};
  }

  ScheduledApp app(std::move(names), std::move(deadlines));
  return ComposedSystem(std::move(tasks), std::move(app), std::move(mapping));
}

ComposedTimeSource::ComposedTimeSource(const ComposedSystem& system,
                                       std::vector<ActualTimeSource*> sources)
    : system_(&system), sources_(std::move(sources)) {
  SPEEDQM_REQUIRE(sources_.size() == system.num_tasks(),
                  "ComposedTimeSource: one source per task required");
  for (const auto* s : sources_) {
    SPEEDQM_REQUIRE(s != nullptr, "ComposedTimeSource: null source");
  }
}

TimeNs ComposedTimeSource::actual_time(ActionIndex i, Quality q) {
  const TaskRef& ref = system_->origin(i);
  return sources_[ref.task]->actual_time(ref.local_action, q);
}

}  // namespace speedqm

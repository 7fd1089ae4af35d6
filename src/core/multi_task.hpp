// Multi-task composition — the paper's §5 future-work item "adaption to
// multiple tasks".
//
// The framework controls one scheduled action sequence per cycle. When a
// cycle hosts several logical tasks (video + audio + telemetry on one
// core), their sequences can be composed into a single parameterized
// system and controlled by ONE Quality Manager:
//
//   * actions are interleaved proportionally (at every position the task
//     with the lowest completed fraction contributes its next action), so
//     no task is starved to the end of the cycle;
//   * each task keeps its own deadline, attached to its last composite
//     action (plus any intra-task milestone deadlines, shifted to their
//     composite positions);
//   * the composed TimingModel concatenates the per-task rows; all tasks
//     must agree on the quality-level count (one shared quality knob — the
//     manager degrades or raises all tasks together, preserving the
//     paper's single-parameter policy structure). It is built on first
//     use: per-task managers (the batched serving path) never read it.
//
// The composition keeps a mapping back to (task, local action) so run
// results can be re-attributed per task.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/application.hpp"
#include "core/controller.hpp"
#include "core/timing_model.hpp"

namespace speedqm {

/// One task to compose.
struct TaskSpec {
  std::string name;
  const ScheduledApp* app = nullptr;
  const TimingModel* timing = nullptr;
};

/// Where a composite action came from.
struct TaskRef {
  std::size_t task = 0;
  ActionIndex local_action = 0;
};

/// The composed system plus provenance.
class ComposedSystem {
 public:
  /// `mapping[i]` is the origin of composite action i of `app`; the
  /// composed timing model is assembled from the tasks' rows through it.
  ComposedSystem(std::vector<TaskSpec> tasks, ScheduledApp app,
                 std::vector<TaskRef> mapping);

  const ScheduledApp& app() const { return app_; }
  /// The composed timing model: every task's Cav/Cwc rows in composite
  /// order. Built on the first call (thread-safe) and kept.
  const TimingModel& timing() const;
  /// The shared quality level count (no timing model needed).
  int num_levels() const { return tasks_.front().timing->num_levels(); }
  std::size_t num_tasks() const { return tasks_.size(); }
  const std::string& task_name(std::size_t t) const { return tasks_.at(t).name; }
  /// The composed task's spec (local app/timing pointers stay valid for the
  /// composition's lifetime — they are what compose_tasks was given).
  const TaskSpec& task(std::size_t t) const { return tasks_.at(t); }
  /// Number of local actions of task t.
  ActionIndex task_size(std::size_t t) const { return tasks_.at(t).app->size(); }

  /// Provenance of composite action i.
  const TaskRef& origin(ActionIndex i) const { return mapping_.at(i); }

  /// Composite index of a task's local action.
  ActionIndex composite_index(std::size_t task, ActionIndex local) const;

  /// Mean quality per task from a controlled run of the composed app.
  std::vector<double> per_task_quality(const CycleResult& run) const;

 private:
  struct LazyTiming {
    std::once_flag once;
    std::unique_ptr<const TimingModel> model;
  };

  std::vector<TaskSpec> tasks_;
  ScheduledApp app_;
  std::vector<TaskRef> mapping_;
  std::vector<std::vector<ActionIndex>> composite_of_;  // [task][local] -> i
  std::unique_ptr<LazyTiming> timing_ = std::make_unique<LazyTiming>();
};

/// Composes the tasks by proportional interleaving, as a T-way heap merge:
/// O(N log T) for N composite actions over T tasks. Requirements: at least
/// one task, equal num_levels across tasks, every task non-empty.
ComposedSystem compose_tasks(std::vector<TaskSpec> tasks);

/// Adapter exposing per-task actual-time sources as one composed source.
class ComposedTimeSource final : public ActualTimeSource {
 public:
  ComposedTimeSource(const ComposedSystem& system,
                     std::vector<ActualTimeSource*> sources);

  TimeNs actual_time(ActionIndex i, Quality q) override;

 private:
  const ComposedSystem* system_;
  std::vector<ActualTimeSource*> sources_;
};

}  // namespace speedqm

// Actual-execution-time traces.
//
// The controller never knows C(a, q) in advance; the workload layer
// synthesizes it. A TraceTimeSource stores, for every cycle (frame), a
// dense [action][quality] table of actual times: the content of an action
// instance (complexity, noise) is sampled once per (cycle, action) so the
// time is consistent across quality levels — choosing a different quality
// replays the *same* content at a different fidelity, exactly like a real
// encoder. This also keeps runs deterministic regardless of the manager's
// choices (the RNG stream does not depend on decisions).
#pragma once

#include <cstdint>
#include <vector>

#include "core/multi_task.hpp"
#include "core/timing_model.hpp"
#include "sim/executor.hpp"
#include "support/cache_line.hpp"
#include "support/contract.hpp"

namespace speedqm {

class TraceTimeSource final : public CyclicTimeSource {
 public:
  /// `data` holds num_cycles tables, each row-major [action][quality] of
  /// size num_actions * num_levels.
  TraceTimeSource(ActionIndex num_actions, int num_levels,
                  std::vector<std::vector<TimeNs>> data);

  void set_cycle(std::size_t cycle) override;
  std::size_t num_cycles() const override { return data_.size(); }
  TimeNs actual_time(ActionIndex i, Quality q) override;

  /// Direct (cycle, action, quality) access for analysis and tests.
  TimeNs at(std::size_t cycle, ActionIndex i, Quality q) const;
  /// One cycle's row-major [action][quality] table (num_actions *
  /// num_levels entries), for readers that keep their own cursor.
  const TimeNs* cycle_table(std::size_t cycle) const;
  /// The cycle actual_time() currently reads (set by set_cycle).
  std::size_t cycle() const { return current_cycle_; }

  ActionIndex num_actions() const { return n_; }
  int num_levels() const { return nq_; }

  /// Fraction of entries that had to be clamped to Cwc during generation
  /// (set by generators; diagnostic only).
  double clamp_fraction() const { return clamp_fraction_; }
  void set_clamp_fraction(double f) { clamp_fraction_ = f; }

  /// Verifies every entry satisfies 0 <= C(i, q) <= Cwc(i, q) and is
  /// non-decreasing in q. Returns the number of violations (0 = the
  /// Definition 1 contract holds for this trace).
  std::size_t count_contract_violations(const TimingModel& tm) const;

 private:
  ActionIndex n_;
  int nq_;
  std::vector<std::vector<TimeNs>> data_;
  std::size_t current_cycle_ = 0;
  double clamp_fraction_ = 0.0;
};

/// Cyclic source over a ComposedSystem: maps composite actions back to
/// (task, local action) through a flat per-action (task, row offset) index
/// built at construction, and keeps its own per-task row pointers for the
/// selected cycle (each task wraps around its own content length). The
/// per-task traces are only read: selecting a cycle here never moves their
/// cursors, so one pool's traces can back any number of sources at once.
class ComposedCyclicSource final : public CyclicTimeSource {
 public:
  ComposedCyclicSource(const ComposedSystem& system,
                       std::vector<const TraceTimeSource*> sources);

  void set_cycle(std::size_t cycle) override;
  /// True content period of the composition, fixed at construction: the
  /// LCM of the per-task trace lengths (each task wraps its own content,
  /// so the joint content repeats at the LCM). Pathological mixes whose
  /// LCM explodes fall back to the longest task's length — shorter tasks
  /// then wrap non-uniformly.
  std::size_t num_cycles() const override { return num_cycles_; }
  TimeNs actual_time(ActionIndex i, Quality q) override {
    const Slot& slot = slots_.at(i);
    SPEEDQM_REQUIRE(q >= 0 && q < nq_,
                    "ComposedCyclicSource: quality out of range");
    return rows_[slot.task][slot.offset + static_cast<std::size_t>(q)];
  }

 private:
  /// Composite action -> its task and the offset of its local action's
  /// row inside that task's per-cycle table (32-bit: half the footprint).
  struct Slot {
    std::uint32_t task = 0;
    std::uint32_t offset = 0;
  };

  std::vector<const TraceTimeSource*> sources_;
  std::vector<Slot> slots_;
  /// Per task: the selected cycle's table (rewritten every cycle).
  CacheLineVector<const TimeNs*> rows_;
  int nq_ = 0;
  std::size_t num_cycles_ = 1;
};

}  // namespace speedqm

#include "sim/executor.hpp"

#include "sim/executor_loop.hpp"

namespace speedqm {

double RunResult::overhead_fraction() const {
  const double busy =
      static_cast<double>(total_action_time + total_overhead_time);
  if (busy <= 0.0) return 0.0;
  return static_cast<double>(total_overhead_time) / busy;
}

double RunResult::mean_quality() const {
  if (total_steps == 0) return 0.0;
  return quality_sum / static_cast<double>(total_steps);
}

std::vector<Quality> RunResult::cycle_qualities(std::size_t cycle) const {
  std::vector<Quality> qs;
  for (const auto& s : steps) {
    if (s.cycle == cycle) qs.push_back(s.quality);
  }
  return qs;
}

RunResult run_cyclic(const ScheduledApp& app, QualityManager& manager,
                     CyclicTimeSource& source, const ExecutorOptions& opts) {
  return run_cyclic_loop(app, manager, source, opts.sink, opts);
}

}  // namespace speedqm

// Ablation A7 — multi-task composition (paper §5 future work "adaption to
// multiple tasks"): a video task, an audio task and a telemetry task share
// one cycle under a common deadline. Compares the proportional-interleave
// composition against a naive sequential concatenation: interleaving keeps
// every task progressing, so a late heavy stretch cannot starve the small
// tasks' budgets, and the single Quality Manager degrades all tasks
// together (coupled-quality semantics).
#include <cstdio>

#include "core/multi_task.hpp"
#include "core/numeric_manager.hpp"
#include "core/feasibility.hpp"

#include "bench_common.hpp"
#include "workload/synthetic.hpp"

using namespace speedqm;
using namespace speedqm::bench;

namespace {

SyntheticWorkload make_task(std::uint64_t seed, ActionIndex n, TimeNs lo,
                            TimeNs hi) {
  SyntheticSpec spec;
  spec.seed = seed;
  spec.num_actions = n;
  spec.num_levels = 6;
  spec.base_min_ns = lo;
  spec.base_max_ns = hi;
  spec.budget_quality = 4;
  spec.num_cycles = 16;
  return SyntheticWorkload(spec);
}

ScheduledApp with_budget(const ScheduledApp& app, TimeNs budget) {
  std::vector<std::string> names;
  std::vector<TimeNs> deadlines(app.size(), kTimePlusInf);
  for (ActionIndex i = 0; i < app.size(); ++i) names.push_back(app.name(i));
  deadlines.back() = budget;
  return ScheduledApp(std::move(names), std::move(deadlines));
}

/// Sequential "composition" baseline: tasks one after another.
ComposedSystem compose_sequential(std::vector<TaskSpec> tasks) {
  // Concatenate the tasks; the composed model follows the mapping.
  std::vector<std::string> names;
  std::vector<TimeNs> deadlines;
  std::vector<TaskRef> mapping;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    for (ActionIndex i = 0; i < tasks[t].app->size(); ++i) {
      names.push_back(tasks[t].name + "/" + tasks[t].app->name(i));
      deadlines.push_back(tasks[t].app->deadline(i));
      mapping.push_back(TaskRef{t, i});
    }
  }
  ScheduledApp app(std::move(names), std::move(deadlines));
  return ComposedSystem(std::move(tasks), std::move(app), std::move(mapping));
}

struct Outcome {
  double mean_quality = 0;
  std::size_t misses = 0;
  std::vector<double> per_task;
};

Outcome run_composed(ComposedSystem& system, SyntheticWorkload& a,
                     SyntheticWorkload& b, SyntheticWorkload& c,
                     std::size_t cycles) {
  const PolicyEngine engine(system.app(), system.timing());
  NumericManager manager(engine);
  Outcome out;
  out.per_task.assign(3, 0.0);
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    a.traces().set_cycle(cycle);
    b.traces().set_cycle(cycle);
    c.traces().set_cycle(cycle);
    ComposedTimeSource source(system, {&a.traces(), &b.traces(), &c.traces()});
    const auto run = run_cycle(system.app(), manager, source);
    out.mean_quality += run.mean_quality();
    out.misses += run.deadline_misses;
    const auto per_task = system.per_task_quality(run);
    for (std::size_t t = 0; t < 3; ++t) out.per_task[t] += per_task[t];
  }
  out.mean_quality /= static_cast<double>(cycles);
  for (auto& q : out.per_task) q /= static_cast<double>(cycles);
  return out;
}

}  // namespace

int main() {
  print_header("Ablation A7 — multi-task composition",
               "Combaz et al., IPPS 2007, section 5 (multiple tasks)");

  auto video = make_task(11, 36, us(450), us(850));
  auto audio = make_task(12, 12, us(70), us(140));
  auto telem = make_task(13, 6, us(25), us(60));

  const TimeNs budget = static_cast<TimeNs>(
      1.22 * static_cast<double>(video.timing().total_cav(4) +
                                 audio.timing().total_cav(4) +
                                 telem.timing().total_cav(4)));
  const ScheduledApp va = with_budget(video.app(), budget);
  const ScheduledApp aa = with_budget(audio.app(), budget);
  const ScheduledApp ta = with_budget(telem.app(), budget);

  auto interleaved = compose_tasks({TaskSpec{"video", &va, &video.timing()},
                                    TaskSpec{"audio", &aa, &audio.timing()},
                                    TaskSpec{"telemetry", &ta, &telem.timing()}});
  auto sequential = compose_sequential(
      {TaskSpec{"video", &va, &video.timing()},
       TaskSpec{"audio", &aa, &audio.timing()},
       TaskSpec{"telemetry", &ta, &telem.timing()}});

  {
    const PolicyEngine engine(interleaved.app(), interleaved.timing());
    const auto feas = analyze_feasibility(engine);
    std::printf("shared budget %s, qmin slack %s, max start quality q%d\n\n",
                format_time(budget).c_str(),
                format_time(feas.qmin_slack).c_str(), feas.max_start_quality);
  }

  const std::size_t cycles = 16;
  auto out_i = run_composed(interleaved, video, audio, telem, cycles);
  auto out_s = run_composed(sequential, video, audio, telem, cycles);

  TextTable table({"composition", "mean q", "video q", "audio q",
                   "telemetry q", "misses"});
  CsvWriter csv("multitask.csv");
  csv.row({"composition", "mean_q", "video_q", "audio_q", "telemetry_q",
           "misses"});
  const auto row = [&](const char* name, const Outcome& o) {
    table.begin_row()
        .cell(name)
        .cell(o.mean_quality, 3)
        .cell(o.per_task[0], 3)
        .cell(o.per_task[1], 3)
        .cell(o.per_task[2], 3)
        .cell(o.misses);
    table.end_row();
    csv.begin_row()
        .col(name)
        .col(o.mean_quality)
        .col(o.per_task[0])
        .col(o.per_task[1])
        .col(o.per_task[2])
        .col(o.misses)
        .end_row();
  };
  row("proportional interleave", out_i);
  row("sequential concatenation", out_s);
  std::printf("%s\n", table.render().c_str());

  bool ok = true;
  ok &= shape_check("interleaved composition misses no deadline",
                    out_i.misses == 0);
  ok &= shape_check("sequential composition misses no deadline",
                    out_s.misses == 0);
  ok &= shape_check("all tasks progress under one shared manager "
                    "(every per-task quality above qmin)",
                    out_i.per_task[0] > 0 && out_i.per_task[1] > 0 &&
                        out_i.per_task[2] > 0);
  std::printf("\nseries written to multitask.csv\n");
  return ok ? 0 : 1;
}

#include "serve/admission.hpp"

#include <algorithm>

#include "sim/overhead_inflation.hpp"
#include "support/contract.hpp"
#include "support/time.hpp"

namespace speedqm {

const char* to_string(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kBestFit: return "best-fit";
    case PlacementPolicy::kMostSlack: return "most-slack";
  }
  return "?";
}

AdmissionController::AdmissionController(std::shared_ptr<TaskPool> pool,
                                         TimeNs budget, PlacementPolicy policy)
    : budget_(budget), policy_(policy) {
  // Checked in every build: the closed form indexes per-task arrays.
  if (pool == nullptr) throw contract_error("AdmissionController: null pool");
  if (budget_ <= 0) {
    throw contract_error("AdmissionController: non-positive budget");
  }
  const MultiTaskMixSpec& spec = pool->spec();
  coexistence_margin_ = spec.coexistence_margin;
  const OverheadModel overhead = OverheadModel::server_like();
  const BatchCallEstimate estimate(spec.num_levels);
  terms_.resize(pool->size());
  seen_.assign(pool->size(), 0);
  for (std::size_t task = 0; task < pool->size(); ++task) {
    const TimingModel& raw = pool->raw_timing(task);
    TaskTerms& t = terms_[task];
    t.actions = static_cast<TimeNs>(raw.num_actions());
    t.cav_qmin = raw.total_cav(kQmin);
    // inflate_for_overhead adds one manager call's cost to each action's
    // Cwc; summing those margins gives the inflated total directly.
    t.cwc_qmin = raw.total_cwc(kQmin);
    if (spec.inflate_overhead) {
      for (ActionIndex i = 0; i < raw.num_actions(); ++i) {
        t.cwc_qmin += overhead.cost(estimate.ops(i));
      }
    }
  }
}

TimeNs AdmissionController::slack_of(std::size_t task, TimeNs cav_total) const {
  const TaskTerms& t = terms_[task];
  // The arithmetic of build_member_controllers' margin at qmin, term for
  // term.
  const TimeNs margin =
      coexistence_margin_
          ? static_cast<TimeNs>(
                static_cast<double>(cav_total - t.cav_qmin) /
                    static_cast<double>(t.actions) +
                0.5)
          : 0;
  return budget_ - (t.cwc_qmin + t.actions * margin);
}

void AdmissionController::begin_check() const {
  if (++stamp_ == 0) {  // wrapped: clear the stale stamps once
    std::fill(seen_.begin(), seen_.end(), 0);
    stamp_ = 1;
  }
}

void AdmissionController::mark_member(std::size_t task) const {
  if (task >= terms_.size()) {
    throw contract_error("AdmissionController: task " + std::to_string(task) +
                         " outside the pool");
  }
  if (seen_[task] == stamp_) {
    throw contract_error("AdmissionController: task " + std::to_string(task) +
                         " listed twice");
  }
  seen_[task] = stamp_;
}

MixSlack AdmissionController::evaluate(
    const std::vector<std::size_t>& members) const {
  if (members.empty()) {
    throw contract_error("AdmissionController: empty member set");
  }
  begin_check();
  TimeNs cav_total = 0;
  for (const std::size_t task : members) {
    mark_member(task);
    cav_total += terms_[task].cav_qmin;
  }
  MixSlack out;
  for (std::size_t slot = 0; slot < members.size(); ++slot) {
    const TimeNs slack = slack_of(members[slot], cav_total);
    if (slot == 0 || slack < out.min_qmin_slack) {
      out.min_qmin_slack = slack;
      out.critical_task = slot;
    }
  }
  out.feasible = out.min_qmin_slack >= 0;
  return out;
}

AdmissionDecision AdmissionController::admit(
    std::size_t task, const std::vector<std::vector<std::size_t>>& shard_members,
    std::size_t cycle) const {
  if (shard_members.empty()) {
    throw contract_error("AdmissionController: no shards to evaluate");
  }
  begin_check();
  mark_member(task);
  const TimeNs task_cav = terms_[task].cav_qmin;

  AdmissionDecision decision;
  decision.task = task;
  decision.cycle = cycle;

  TimeNs best_any = 0;        // best slack across all shards (for the log)
  std::size_t best_any_shard = 0;
  bool have_fit = false;
  TimeNs best_fit = 0;        // the policy's pick among feasible shards
  std::size_t best_fit_shard = 0;
  TimeNs best_fit_before = 0;  // the pick's Σ C before the join

  for (std::size_t shard = 0; shard < shard_members.size(); ++shard) {
    const std::vector<std::size_t>& members = shard_members[shard];
    TimeNs before = 0;
    for (const std::size_t member : members) {
      mark_member(member);
      before += terms_[member].cav_qmin;
    }
    const TimeNs with = before + task_cav;
    TimeNs slack = slack_of(task, with);
    for (const std::size_t member : members) {
      slack = std::min(slack, slack_of(member, with));
    }
    if (shard == 0 || slack > best_any) {
      best_any = slack;
      best_any_shard = shard;
    }
    const bool better = policy_ == PlacementPolicy::kBestFit
                            ? slack < best_fit
                            : slack > best_fit;
    if (slack >= 0 && (!have_fit || better)) {
      have_fit = true;
      best_fit = slack;
      best_fit_shard = shard;
      best_fit_before = before;
    }
  }

  if (have_fit) {
    decision.admitted = true;
    decision.shard = best_fit_shard;
    decision.slack = best_fit;
    // Admission price: slack the chosen shard gives up by taking the task.
    // An empty shard's before-slack is the whole budget (nothing binds).
    TimeNs before = budget_;
    for (const std::size_t member : shard_members[best_fit_shard]) {
      before = std::min(before, slack_of(member, best_fit_before));
    }
    decision.price = before - best_fit;
    decision.reason = "admitted to shard " + std::to_string(best_fit_shard) +
                      " (" + to_string(policy_) + " slack " +
                      format_time(best_fit) + ")";
  } else {
    decision.admitted = false;
    decision.shard = best_any_shard;
    decision.slack = best_any;
    decision.reason = "rejected: every shard would go infeasible (best slack " +
                      format_time(best_any) + " on shard " +
                      std::to_string(best_any_shard) + ")";
  }
  return decision;
}

}  // namespace speedqm

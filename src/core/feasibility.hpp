// Start-state feasibility analysis.
//
// The safety theorem of the mixed policy needs the initial state to be
// feasible: tD(s_0, qmin) >= 0, i.e. even the all-minimal-quality plan
// fits every deadline with its safety margin. This module answers the
// deployment questions around that condition: is the configuration
// feasible, with how much slack, which deadline is critical, how much
// extra budget an infeasible configuration needs, and up to which quality
// the cycle could run uniformly.
#pragma once

#include <vector>

#include "core/policy.hpp"

namespace speedqm {

struct FeasibilityReport {
  /// tD(0, qmin) >= 0 — the safety theorem's precondition.
  bool feasible = false;
  /// Slack of the all-qmin plan: tD(0, qmin) (negative when infeasible).
  TimeNs qmin_slack = 0;
  /// Largest quality q with tD(0, q) >= 0; -1 when none (infeasible).
  Quality max_start_quality = -1;
  /// Uniform budget increase on every deadline that would make the
  /// configuration feasible (0 when already feasible).
  TimeNs required_extra_budget = 0;
  /// The deadline-carrying action whose constraint binds at qmin.
  ActionIndex critical_deadline_action = 0;
  /// Start slack per quality level: td0[q] = tD(0, q).
  std::vector<TimeNs> start_slack;
};

/// Analyzes the engine's start state (any policy kind).
FeasibilityReport analyze_feasibility(const PolicyEngine& engine);

/// Feasibility of a co-scheduled task mix: every task decides against the
/// shared clock with its own coexistence-margin-inflated model, so the mix
/// is feasible iff every per-task engine is feasible on its own. This is
/// the admission-control predicate: a joining task thickens everyone's
/// margins, and the report says whether the thickened mix still starts
/// feasible and how much slack the tightest task retains.
/// serve/AdmissionController answers it in closed form; its tests use this
/// report as the oracle.
struct MixFeasibilityReport {
  /// Every task's start state is feasible.
  bool feasible = false;
  /// min over tasks of tD_tau(0, qmin) — the binding task's slack
  /// (negative when infeasible).
  TimeNs min_qmin_slack = 0;
  /// Index (into `engines`) of the task with the least qmin slack.
  std::size_t critical_task = 0;
  /// Largest quality every task could uniformly start at (-1 when
  /// infeasible): min over tasks of max_start_quality.
  Quality max_uniform_quality = -1;
  /// Per-task reports, in input order.
  std::vector<FeasibilityReport> tasks;
};

/// Analyzes a mix of per-task engines (each already built over its
/// budget-bearing app and margin-inflated controller model). Requires at
/// least one engine.
MixFeasibilityReport analyze_mix_feasibility(
    const std::vector<const PolicyEngine*>& engines);

}  // namespace speedqm

// Quality-management policies: the tD function of section 2.2.
//
// A policy is an execution-time estimator CD for the remaining action
// sequence; the Quality Manager is Γ(s, t) = max { q | tD(s, q) >= t } with
//
//   tD(s, q) = min_{k >= s, D(k) finite}  D(k) - CD(a_s..a_k, q).
//
// Three estimators are provided (0-based indices; see core/types.hpp):
//
//   Safe     CD = Csf(s..k, q)  = Cwc(a_s, q) + Cwc(a_{s+1}..a_k, qmin)
//   Average  CD = Cav(s..k, q)                       (not deadline-safe)
//   Mixed    CD = Cav(s..k, q) + δmax(s..k, q)       (the paper's policy)
//
// with δmax(s..k, q) = max_{s<=j<=k} [ Csf(j..k, q) - Cav(j..k, q) ].
// The mixed estimator has the equivalent closed form used internally:
//
//   CD(s..k, q) = max_{s<=j<=k} [ Cav(a_s..a_{j-1}, q) + Cwc(a_j, q)
//                                 + Cwc(a_{j+1}..a_k, qmin) ],
//
// i.e. the worst case over the position j of the last action executed at
// quality q before the controller would have to fall back to qmin. This
// form makes CD manifestly non-decreasing in both q and k — the two
// monotonicity properties Propositions 2 and 3 rest on.
#pragma once

#include <cstdint>
#include <vector>

#include "core/application.hpp"
#include "core/timing_model.hpp"
#include "core/types.hpp"

namespace speedqm {

class IncrementalTdState;

/// Working memory for PolicyEngine::td_table_into: the mixed policy's
/// monotone stack. Owned by the caller and reused across tables and
/// engines, so compiling many tables allocates it once.
class TdTableScratch {
 private:
  friend class PolicyEngine;
  struct Segment {
    TimeNs m;            ///< max of M over the js forming this segment
    TimeNs min_g;        ///< min G(k) over deadline ks covered (+inf if none)
    TimeNs suffix_best;  ///< min over this segment and all segments below
  };
  std::vector<Segment> stack_;
};

/// Which execution-time estimator the policy uses.
enum class PolicyKind {
  kMixed,    ///< Cav + δmax — safe and smooth (the paper's policy).
  kSafe,     ///< Csf — safe but pessimistic; quality decays along the cycle.
  kAverage,  ///< Cav — optimistic; can miss deadlines (baseline only).
};

const char* to_string(PolicyKind kind);

/// Evaluates tD for a fixed (application, timing model, policy) triple.
///
/// Two evaluation paths are provided:
///  * `td_online` — the numeric Quality Manager's path: a forward scan over
///    the remaining actions with O(1) state, exactly the work a
///    straightforward online implementation performs. Reports an operation
///    count so the simulator can charge its cost.
///  * `td_table` — the symbolic path: computes tD(s, q) for *all* states at
///    once (amortized O(n) per quality level for the mixed policy via a
///    monotone-stack sweep), used by the offline RegionCompiler.
///
/// `td_naive` is a direct transcription of the definition (O(n^2) per call)
/// kept as a test oracle.
class PolicyEngine {
 public:
  PolicyEngine(const ScheduledApp& app, const TimingModel& timing,
               PolicyKind kind = PolicyKind::kMixed);

  const ScheduledApp& app() const { return *app_; }
  const TimingModel& timing() const { return *timing_; }
  PolicyKind kind() const { return kind_; }
  Quality qmax() const { return timing_->qmax(); }
  int num_levels() const { return timing_->num_levels(); }
  StateIndex num_states() const { return app_->num_states(); }

  /// Online evaluation of tD(s, q); s in 0..n-1. Adds the number of
  /// abstract operations performed to *ops when non-null. Returns
  /// kTimePlusInf when no finite deadline remains after state s.
  TimeNs td_online(StateIndex s, Quality q, std::uint64_t* ops = nullptr) const;

  /// Full tD table, row-major [state][quality], size n * num_levels.
  std::vector<TimeNs> td_table() const;

  /// Writes the full tD table (td_table()'s values and layout) to
  /// out[0 .. n * num_levels), e.g. straight into a shared arena; `scratch`
  /// is reused working memory, so the call allocates nothing once it has
  /// grown.
  void td_table_into(TimeNs* out, TdTableScratch& scratch) const;

  /// Reference implementation straight from the definitions (test oracle).
  TimeNs td_naive(StateIndex s, Quality q) const;

  /// The online Quality Manager decision Γ(s, t) = max { q | tD(s,q) >= t }.
  ///
  /// Exploits that tD(s, .) is non-increasing in q: O(log |Q|) td_online
  /// probes via binary search on the quality axis, or O(1) probes when
  /// `warm_hint` >= 0 names the previous step's quality (smoothness means
  /// the chosen level rarely moves by more than one). Decisions are
  /// bit-identical to decide_scan; only Decision.ops differs.
  Decision decide_online(StateIndex s, TimeNs t, Quality warm_hint = -1) const;

  /// The straightforward downward scan from qmax (each probe pays a
  /// td_online) — the paper's numeric implementation, kept as the reference
  /// and the ops baseline for the decision-engine ablation.
  Decision decide_scan(StateIndex s, TimeNs t) const;

  /// The same decision with each probe answered by `state` in O(1)
  /// amortized as s advances through a run (core/td_incremental.hpp)
  /// instead of an O(n) td_online sweep. `state` must have been built from
  /// this engine. Decisions are bit-identical to decide_scan; only
  /// Decision.ops differs.
  Decision decide_incremental(IncrementalTdState& state, StateIndex s, TimeNs t,
                              Quality warm_hint = -1) const;

  // --- Segment quantities (exact, naive evaluation; used by speed
  // --- diagrams, tests and documentation tooling, not the hot path).

  /// Csf(j..k, q) = Cwc(a_j, q) + Cwc(a_{j+1}..a_k, qmin); requires j <= k.
  TimeNs csf(ActionIndex j, ActionIndex k, Quality q) const;
  /// δ(j..k, q) = Csf(j..k, q) - Cav(j..k, q).
  TimeNs delta(ActionIndex j, ActionIndex k, Quality q) const;
  /// δmax(s..k, q) = max_{s<=j<=k} δ(j..k, q).
  TimeNs delta_max(ActionIndex s, ActionIndex k, Quality q) const;
  /// The policy's CD(s..k, q) (depends on kind).
  TimeNs cd(ActionIndex s, ActionIndex k, Quality q) const;

 private:
  TimeNs td_online_mixed(StateIndex s, Quality q, std::uint64_t* ops) const;
  TimeNs td_online_safe(StateIndex s, Quality q, std::uint64_t* ops) const;
  TimeNs td_online_average(StateIndex s, Quality q, std::uint64_t* ops) const;

  // Quality column q of the table: column[s * num_levels] = tD(s, q).
  void td_column_mixed(Quality q, TimeNs* column,
                       std::vector<TdTableScratch::Segment>& stack) const;
  void td_column_safe(Quality q, TimeNs* column) const;
  void td_column_average(Quality q, TimeNs* column) const;

  const ScheduledApp* app_;
  const TimingModel* timing_;
  PolicyKind kind_;
};

}  // namespace speedqm

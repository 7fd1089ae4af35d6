// Admission control for sharded serving.
//
// A shard's cycle budget B (its capacity) is fixed at serving start; a
// task asking to join consumes capacity indirectly, by thickening every
// member's coexistence margin (workload/scenarios.hpp,
// build_member_controllers). The admission question is the paper's
// feasibility precondition, asked per shard over the would-be member set
// M: with the newcomer's margins folded in, does every member k still
// satisfy tD_k(0, qmin) >= 0 against B?
//
// Closed form. The controllers build_member_controllers assembles for M
// give each member k:
//   * exactly one deadline, B on its last action (every other one is
//     cleared), and
//   * a controller model whose Cav and Cwc are the raw model's plus two
//     per-action constants added to both alike: the coexistence margin
//     m_k (constant over k's actions at a given quality) and the §2.2.2
//     overhead margin (BatchCallEstimate is constant per action).
// At q = qmin the mixed policy's δ terms are Cwc − Cav differences, so
// both margins cancel in them; with Cav <= Cwc (Definition 1) δmax is the
// sum of all of them and tD_k(0, qmin) = B − total Cwc_k(qmin). Only the
// coexistence margin moves that total, by n_k · m_k:
//
//   slack_k(M) = B − X_k − n_k · m_k
//   X_k = total Cwc(qmin) of k's solo controller model (raw model, plus
//         the overhead margin when spec.inflate_overhead)
//   m_k = TimeNs(double(Σ_{j∈M, j≠k} C_j) / double(n_k) + 0.5), or 0 when
//         !spec.coexistence_margin;   C_j = raw total Cav_j(qmin)
//
// n_k, C_k and X_k are computed once per pool task at construction, so
// evaluating a member set is one O(|M|) pass with no allocation (the
// duplicate check reuses one stamp array across calls).
// build_member_controllers computes the same margin from the same
// double(Σ_M C − C_k); TaskPool guarantees the pool's Σ Cav at every
// quality stays below 2^53 (support/exact_sum.hpp), so that sum is exact.
// tests/test_admission.cpp keeps the rebuild path
// (build_member_controllers + analyze_mix_feasibility) as the oracle, so
// a change to either assumption above — one shared deadline, additive
// per-action margins — fails there.
//
// Placement evaluates every shard and picks among the feasible ones by
// policy (ties to the lowest shard index):
//   * kBestFit   — the shard where the resulting mix retains the LEAST
//                  slack: packing tight shards tighter keeps loose shards
//                  open for large future arrivals (bin-packing shape);
//   * kMostSlack — the shard retaining the MOST slack (worst-fit): the
//                  serving-throughput choice, spreading load so no shard
//                  becomes the straggler that bounds the worker pool.
// Admission runs on the control thread and depends only on pool contents
// and current memberships, so its decisions are deterministic and
// identical for any worker-thread count. One controller serves one thread
// at a time: its calls share the duplicate-check scratch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/exact_sum.hpp"
#include "workload/scenarios.hpp"

namespace speedqm {

/// One evaluated join request.
struct AdmissionDecision {
  std::size_t task = 0;       ///< pool task id
  std::size_t cycle = 0;      ///< serving cycle at which it was evaluated
  bool admitted = false;
  std::size_t shard = 0;      ///< placement (valid when admitted)
  /// min qmin slack of the placed shard's would-be mix (admitted), or the
  /// best slack any shard could offer (rejected; negative).
  TimeNs slack = 0;
  /// Admission price: the slack the chosen shard gives up by taking this
  /// task (before-join slack minus after-join slack; an empty shard's
  /// before-slack is the full budget). 0 for rejected requests. The SLO
  /// artifact histograms this as admission_price_ns.
  TimeNs price = 0;
  std::string reason;         ///< human-readable verdict for logs
};

enum class PlacementPolicy {
  kBestFit,    ///< feasible shard with the least resulting slack
  kMostSlack,  ///< feasible shard with the most resulting slack (balance)
};

const char* to_string(PlacementPolicy policy);

/// Feasibility of one would-be shard mix at qmin — the fields of
/// MixFeasibilityReport that admission needs.
struct MixSlack {
  bool feasible = false;          ///< every member's tD(0, qmin) >= 0
  TimeNs min_qmin_slack = 0;      ///< the binding member's slack
  std::size_t critical_task = 0;  ///< first member (list index) with it
};

class AdmissionController {
 public:
  /// `budget` is the per-shard cycle capacity every evaluation is made
  /// against. Throws contract_error, in every build, on a null pool or a
  /// non-positive budget. (The pool itself keeps Σ C_j below 2^53 ns.)
  AdmissionController(std::shared_ptr<TaskPool> pool, TimeNs budget,
                      PlacementPolicy policy = PlacementPolicy::kBestFit);

  TimeNs budget() const { return budget_; }
  PlacementPolicy policy() const { return policy_; }

  /// Feasibility of a hypothetical member set on one shard. Throws
  /// contract_error, in every build, on an empty set, a task outside the
  /// pool or a duplicate member.
  MixSlack evaluate(const std::vector<std::size_t>& members) const;

  /// Evaluates joining `task` to each of `shard_members` and picks a
  /// feasible shard by policy. Does not mutate the memberships; the caller
  /// applies the placement. Throws contract_error, in every build, on an
  /// empty shard list, a task outside the pool, or a task listed twice
  /// (`task` itself included).
  AdmissionDecision admit(std::size_t task,
                          const std::vector<std::vector<std::size_t>>& shard_members,
                          std::size_t cycle) const;

 private:
  /// Per pool task constants of the closed form.
  struct TaskTerms {
    TimeNs actions = 0;    ///< n_k
    TimeNs cav_qmin = 0;   ///< C_k
    TimeNs cwc_qmin = 0;   ///< X_k
  };

  /// slack_k of pool task `task` in a mix whose Σ C is `cav_total`.
  TimeNs slack_of(std::size_t task, TimeNs cav_total) const;
  /// Starts a duplicate check: no task counts as listed any more.
  void begin_check() const;
  /// Checks `task` against the pool and the tasks listed since
  /// begin_check, then marks it listed.
  void mark_member(std::size_t task) const;

  TimeNs budget_;
  PlacementPolicy policy_;
  bool coexistence_margin_;
  std::vector<TaskTerms> terms_;
  /// Duplicate-check scratch, reused by every call: task k is listed in
  /// the current check when seen_[k] == stamp_.
  mutable std::vector<std::uint32_t> seen_;
  mutable std::uint32_t stamp_ = 0;
};

}  // namespace speedqm

#include "core/policy.hpp"

#include <algorithm>

#include "core/decision_search.hpp"
#include "core/td_incremental.hpp"
#include "support/contract.hpp"

namespace speedqm {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kMixed: return "mixed";
    case PolicyKind::kSafe: return "safe";
    case PolicyKind::kAverage: return "average";
  }
  return "?";
}

PolicyEngine::PolicyEngine(const ScheduledApp& app, const TimingModel& timing,
                           PolicyKind kind)
    : app_(&app), timing_(&timing), kind_(kind) {
  SPEEDQM_REQUIRE(app.size() == timing.num_actions(),
                  "PolicyEngine: application and timing model sizes differ");
}

// ---------------------------------------------------------------------------
// Online evaluation (the numeric Quality Manager's work).
// ---------------------------------------------------------------------------

TimeNs PolicyEngine::td_online(StateIndex s, Quality q, std::uint64_t* ops) const {
  SPEEDQM_REQUIRE(s < num_states(), "td_online: state out of range");
  SPEEDQM_REQUIRE(timing_->valid_quality(q), "td_online: quality out of range");
  switch (kind_) {
    case PolicyKind::kMixed: return td_online_mixed(s, q, ops);
    case PolicyKind::kSafe: return td_online_safe(s, q, ops);
    case PolicyKind::kAverage: return td_online_average(s, q, ops);
  }
  SPEEDQM_UNREACHABLE("unreachable policy kind");
}

TimeNs PolicyEngine::td_online_mixed(StateIndex s, Quality q,
                                     std::uint64_t* ops) const {
  // Forward scan maintaining, incrementally in k:
  //   cav_sum = Cav(s..k, q)
  //   dmax    = δmax(s..k, q)
  // via the recurrences
  //   δ(j..k, q)  = δ(j..k-1, q) + Cwc(k, qmin) - Cav(k, q)     (j < k)
  //   δ(k..k, q)  = Cwc(k, q) - Cav(k, q)
  //   δmax(s..k)  = max(δmax(s..k-1) + Cwc(k,qmin) - Cav(k,q), δ(k..k)).
  // Each iteration is a constant number of adds/compares; we count one
  // abstract operation per scanned action plus one per deadline check.
  //
  // The sweep walks four contiguous quality-major streams (Cav(., q),
  // Cwc(., q), Cwc(., qmin), D(.)) rather than gathering strided rows.
  const ActionIndex n = app_->size();
  const TimeNs* cav_q = timing_->cav_at_quality(q);
  const TimeNs* cwc_q = timing_->cwc_at_quality(q);
  const TimeNs* cwc_min = timing_->cwc_qmin_data();
  const TimeNs* dl = app_->deadline_data();
  TimeNs cav_sum = 0;
  TimeNs dmax = 0;
  TimeNs best = kTimePlusInf;
  std::uint64_t local_ops = 0;
  for (ActionIndex k = s; k < n; ++k) {
    const TimeNs cav_k = cav_q[k];
    const TimeNs delta_kk = cwc_q[k] - cav_k;
    if (k == s) {
      dmax = delta_kk;
    } else {
      dmax = std::max(dmax + cwc_min[k] - cav_k, delta_kk);
    }
    cav_sum += cav_k;
    ++local_ops;
    const TimeNs d = dl[k];
    if (d < kTimePlusInf) {
      best = std::min(best, d - (cav_sum + dmax));
      ++local_ops;
    }
  }
  if (ops) *ops += local_ops;
  return best;
}

TimeNs PolicyEngine::td_online_safe(StateIndex s, Quality q,
                                    std::uint64_t* ops) const {
  const ActionIndex n = app_->size();
  const TimeNs* cwc_q = timing_->cwc_at_quality(q);
  const TimeNs* cwc_min = timing_->cwc_qmin_data();
  const TimeNs* dl = app_->deadline_data();
  TimeNs csf_sum = 0;
  TimeNs best = kTimePlusInf;
  std::uint64_t local_ops = 0;
  for (ActionIndex k = s; k < n; ++k) {
    csf_sum += (k == s) ? cwc_q[k] : cwc_min[k];
    ++local_ops;
    const TimeNs d = dl[k];
    if (d < kTimePlusInf) {
      best = std::min(best, d - csf_sum);
      ++local_ops;
    }
  }
  if (ops) *ops += local_ops;
  return best;
}

TimeNs PolicyEngine::td_online_average(StateIndex s, Quality q,
                                       std::uint64_t* ops) const {
  const ActionIndex n = app_->size();
  const TimeNs* cav_q = timing_->cav_at_quality(q);
  const TimeNs* dl = app_->deadline_data();
  TimeNs cav_sum = 0;
  TimeNs best = kTimePlusInf;
  std::uint64_t local_ops = 0;
  for (ActionIndex k = s; k < n; ++k) {
    cav_sum += cav_q[k];
    ++local_ops;
    const TimeNs d = dl[k];
    if (d < kTimePlusInf) {
      best = std::min(best, d - cav_sum);
      ++local_ops;
    }
  }
  if (ops) *ops += local_ops;
  return best;
}

Decision PolicyEngine::decide_online(StateIndex s, TimeNs t,
                                     Quality warm_hint) const {
  SPEEDQM_REQUIRE(s < num_states(), "decide_online: state out of range");
  return decide_max_quality(qmax(), warm_hint,
                            [&](Quality q, std::uint64_t* ops) {
                              return td_online(s, q, ops) >= t;
                            });
}

Decision PolicyEngine::decide_incremental(IncrementalTdState& state,
                                          StateIndex s, TimeNs t,
                                          Quality warm_hint) const {
  SPEEDQM_REQUIRE(&state.engine() == this,
                  "decide_incremental: state built from a different engine");
  SPEEDQM_REQUIRE(s < num_states(), "decide_incremental: state out of range");
  return decide_max_quality(qmax(), warm_hint,
                            [&](Quality q, std::uint64_t* ops) {
                              return state.td(s, q, ops) >= t;
                            });
}

Decision PolicyEngine::decide_scan(StateIndex s, TimeNs t) const {
  Decision d;
  d.relax_steps = 1;
  for (Quality q = qmax(); q >= kQmin; --q) {
    ++d.ops;  // quality probe
    if (td_online(s, q, &d.ops) >= t) {
      d.quality = q;
      d.feasible = true;
      return d;
    }
  }
  d.quality = kQmin;
  d.feasible = false;
  return d;
}

// ---------------------------------------------------------------------------
// Symbolic table construction (offline; used by the RegionCompiler).
// ---------------------------------------------------------------------------

std::vector<TimeNs> PolicyEngine::td_table() const {
  std::vector<TimeNs> table(num_states() *
                            static_cast<std::size_t>(timing_->num_levels()));
  TdTableScratch scratch;
  td_table_into(table.data(), scratch);
  return table;
}

void PolicyEngine::td_table_into(TimeNs* out, TdTableScratch& scratch) const {
  for (Quality q = 0; q < timing_->num_levels(); ++q) {
    TimeNs* column = out + q;
    switch (kind_) {
      case PolicyKind::kMixed: td_column_mixed(q, column, scratch.stack_); break;
      case PolicyKind::kSafe: td_column_safe(q, column); break;
      case PolicyKind::kAverage: td_column_average(q, column); break;
    }
  }
}

// The column sweeps read the model through its unchecked accessors: every
// index is in range by construction (s < n, s + 1 <= n).

void PolicyEngine::td_column_mixed(
    Quality q, TimeNs* column,
    std::vector<TdTableScratch::Segment>& stack) const {
  // tD(s, q) = Av_q(s) + min_{k >= s, D(k) finite} [ G(k) - max_{s<=j<=k} M(j) ]
  // with M(j) = Av_q(j) + Cwc(j, q) + SufMin(j+1)
  //      G(k) = D(k) + SufMin(k+1).
  //
  // Sweep s from n-1 downward keeping a monotone stack of segments over k.
  // Each segment covers a maximal run of k positions sharing the same value
  // of max_{s<=j<=k} M(j) (= the segment's `m`); it records the minimum of
  // G over its deadline-carrying positions and the best (min of G - m)
  // achievable in this segment and everything to its right. Amortized O(n).
  const ActionIndex n = app_->size();
  const auto stride = static_cast<std::size_t>(timing_->num_levels());
  const TimeNs* dl = app_->deadline_data();
  // The stack holds at most one segment per state: size it once, then
  // push and pop through a top index.
  if (stack.size() < n) stack.resize(n);
  TdTableScratch::Segment* segments = stack.data();
  std::size_t top = 0;

  for (ActionIndex s = n; s-- > 0;) {
    const TimeNs prefix = timing_->cav_prefix_unchecked(s, q);
    const TimeNs suffix = timing_->cwc_qmin_suffix_unchecked(s + 1);
    const TimeNs m_s = prefix + timing_->cwc_unchecked(s, q) + suffix;
    const TimeNs d = dl[s];
    TimeNs min_g = (d < kTimePlusInf) ? d + suffix : kTimePlusInf;
    while (top > 0 && segments[top - 1].m <= m_s) {
      min_g = std::min(min_g, segments[top - 1].min_g);
      --top;
    }
    TimeNs best = (min_g >= kTimePlusInf) ? kTimePlusInf : min_g - m_s;
    // Combine with whatever remains to the right (strictly larger m there
    // means those segments keep their own maxima).
    const TimeNs below = top > 0 ? segments[top - 1].suffix_best : kTimePlusInf;
    const TimeNs suffix_best = std::min(best, below);
    segments[top++] = TdTableScratch::Segment{m_s, min_g, suffix_best};
    column[s * stride] =
        (suffix_best >= kTimePlusInf) ? kTimePlusInf : prefix + suffix_best;
  }
}

void PolicyEngine::td_column_safe(Quality q, TimeNs* column) const {
  // tD_sf(s, q) = min_{k>=s finite} G(k) - Cwc(s, q) - SufMin(s+1),
  // with the same G(k) = D(k) + SufMin(k+1). Single suffix-min sweep.
  const ActionIndex n = app_->size();
  const auto stride = static_cast<std::size_t>(timing_->num_levels());
  const TimeNs* dl = app_->deadline_data();
  TimeNs suffix_min_g = kTimePlusInf;
  for (ActionIndex s = n; s-- > 0;) {
    const TimeNs suffix = timing_->cwc_qmin_suffix_unchecked(s + 1);
    if (dl[s] < kTimePlusInf) {
      suffix_min_g = std::min(suffix_min_g, dl[s] + suffix);
    }
    column[s * stride] =
        (suffix_min_g >= kTimePlusInf)
            ? kTimePlusInf
            : suffix_min_g - timing_->cwc_unchecked(s, q) - suffix;
  }
}

void PolicyEngine::td_column_average(Quality q, TimeNs* column) const {
  // tD_av(s, q) = Av_q(s) + min_{k>=s finite} [ D(k) - Av_q(k+1) ].
  const ActionIndex n = app_->size();
  const auto stride = static_cast<std::size_t>(timing_->num_levels());
  const TimeNs* dl = app_->deadline_data();
  TimeNs suffix_min = kTimePlusInf;
  for (ActionIndex s = n; s-- > 0;) {
    if (dl[s] < kTimePlusInf) {
      suffix_min =
          std::min(suffix_min, dl[s] - timing_->cav_prefix_unchecked(s + 1, q));
    }
    column[s * stride] =
        (suffix_min >= kTimePlusInf)
            ? kTimePlusInf
            : timing_->cav_prefix_unchecked(s, q) + suffix_min;
  }
}

// ---------------------------------------------------------------------------
// Naive reference (test oracle) and segment quantities.
// ---------------------------------------------------------------------------

TimeNs PolicyEngine::csf(ActionIndex j, ActionIndex k, Quality q) const {
  SPEEDQM_REQUIRE(j <= k && k < app_->size(), "csf: bad action range");
  return timing_->cwc(j, q) + (j < k ? timing_->cwc_range(j + 1, k, kQmin) : 0);
}

TimeNs PolicyEngine::delta(ActionIndex j, ActionIndex k, Quality q) const {
  return csf(j, k, q) - timing_->cav_range(j, k, q);
}

TimeNs PolicyEngine::delta_max(ActionIndex s, ActionIndex k, Quality q) const {
  SPEEDQM_REQUIRE(s <= k && k < app_->size(), "delta_max: bad action range");
  TimeNs best = kTimeMinusInf;
  for (ActionIndex j = s; j <= k; ++j) best = std::max(best, delta(j, k, q));
  return best;
}

TimeNs PolicyEngine::cd(ActionIndex s, ActionIndex k, Quality q) const {
  SPEEDQM_REQUIRE(s <= k && k < app_->size(), "cd: bad action range");
  switch (kind_) {
    case PolicyKind::kMixed:
      return timing_->cav_range(s, k, q) + delta_max(s, k, q);
    case PolicyKind::kSafe:
      return csf(s, k, q);
    case PolicyKind::kAverage:
      return timing_->cav_range(s, k, q);
  }
  SPEEDQM_UNREACHABLE("unreachable policy kind");
}

TimeNs PolicyEngine::td_naive(StateIndex s, Quality q) const {
  SPEEDQM_REQUIRE(s < num_states(), "td_naive: state out of range");
  const ActionIndex n = app_->size();
  TimeNs best = kTimePlusInf;
  for (ActionIndex k = s; k < n; ++k) {
    const TimeNs d = app_->deadline(k);
    if (d >= kTimePlusInf) continue;
    best = std::min(best, d - cd(s, k, q));
  }
  return best;
}

}  // namespace speedqm

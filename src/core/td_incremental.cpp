#include "core/td_incremental.hpp"

#include <algorithm>

#include "core/application.hpp"
#include "core/timing_model.hpp"
#include "support/contract.hpp"

namespace speedqm {

namespace {

/// Best achievable G - M inside one segment; guarded so the +inf sentinel
/// never enters arithmetic (matches td_column_mixed).
inline TimeNs segment_best(TimeNs min_g, TimeNs m) {
  return (min_g >= kTimePlusInf) ? kTimePlusInf : min_g - m;
}

}  // namespace

IncrementalTdState::IncrementalTdState(const PolicyEngine& engine)
    : engine_(&engine) {
  lanes_.resize(static_cast<std::size_t>(engine.num_levels()));
}

std::size_t IncrementalTdState::Lane::memory_bytes() const {
  return m.capacity() * sizeof(TimeNs) + min_g.capacity() * sizeof(TimeNs) +
         (children.capacity() + child_start.capacity() + child_count.capacity()) *
             sizeof(std::uint32_t) +
         (roots.capacity() + stack.capacity()) * sizeof(Entry);
}

std::size_t IncrementalTdState::num_compiled_lanes() const {
  std::size_t count = 0;
  for (const auto& lane : lanes_) count += lane ? 1 : 0;
  return count;
}

std::size_t IncrementalTdState::memory_bytes() const {
  std::size_t bytes = safe_suffix_min_g_.capacity() * sizeof(TimeNs);
  for (const auto& lane : lanes_) {
    if (lane) bytes += lane->memory_bytes();
  }
  return bytes;
}

void IncrementalTdState::rewind() {
  for (auto& lane : lanes_) {
    if (!lane) continue;
    lane->stack = lane->roots;
    lane->pos = 0;
  }
}

void IncrementalTdState::clear() {
  for (auto& lane : lanes_) lane.reset();
  safe_suffix_min_g_.clear();
  safe_suffix_min_g_.shrink_to_fit();
}

void IncrementalTdState::ensure_safe_suffix(std::uint64_t* ops) {
  if (!safe_suffix_min_g_.empty()) return;
  const ScheduledApp& app = engine_->app();
  const TimingModel& tm = engine_->timing();
  const ActionIndex n = app.size();
  const TimeNs* dl = app.deadline_data();
  safe_suffix_min_g_.assign(n, kTimePlusInf);
  TimeNs suffix = kTimePlusInf;
  for (ActionIndex s = n; s-- > 0;) {
    const TimeNs d = dl[s];
    if (d < kTimePlusInf) {
      suffix = std::min(suffix, d + tm.cwc_qmin_suffix_unchecked(s + 1));
    }
    safe_suffix_min_g_[s] = suffix;
  }
  if (ops) *ops += n;
}

void IncrementalTdState::compile_lane(Lane& lane, Quality q,
                                      std::uint64_t* ops) const {
  // The backward sweep of PolicyEngine::td_column_mixed, with two changes:
  // popped segments are recorded as the pushing position's *children*
  // (they are exactly the records revealed when that position is later
  // removed from the chain), and only the state-0 chain is materialized —
  // no tD column is stored.
  const ScheduledApp& app = engine_->app();
  const TimingModel& tm = engine_->timing();
  const ActionIndex n = app.size();
  const TimeNs* dl = app.deadline_data();
  const bool mixed = engine_->kind() == PolicyKind::kMixed;

  lane.m.assign(n, 0);
  lane.min_g.assign(n, kTimePlusInf);
  lane.child_start.assign(n, 0);
  lane.child_count.assign(n, 0);
  lane.children.clear();
  lane.children.reserve(n);

  std::vector<std::uint32_t> build;  // chain positions, back = leftmost
  build.reserve(64);

  for (ActionIndex j = n; j-- > 0;) {
    // kAverage reuses the machinery with M == 0: the forest degenerates to
    // a suffix-min chain over G_av(k) = D(k) - Av_q(k+1).
    const TimeNs m_j = mixed ? tm.cav_prefix_unchecked(j, q) +
                                   tm.cwc_unchecked(j, q) +
                                   tm.cwc_qmin_suffix_unchecked(j + 1)
                             : 0;
    const TimeNs d = dl[j];
    TimeNs min_g = kTimePlusInf;
    if (d < kTimePlusInf) {
      min_g = mixed ? d + tm.cwc_qmin_suffix_unchecked(j + 1)
                    : d - tm.cav_prefix_unchecked(j + 1, q);
    }
    lane.child_start[j] = static_cast<std::uint32_t>(lane.children.size());
    while (!build.empty() && lane.m[build.back()] <= m_j) {
      const std::uint32_t c = build.back();
      build.pop_back();
      lane.children.push_back(c);
      min_g = std::min(min_g, lane.min_g[c]);
    }
    lane.child_count[j] = static_cast<std::uint32_t>(lane.children.size()) -
                          lane.child_start[j];
    lane.m[j] = m_j;
    lane.min_g[j] = min_g;
    build.push_back(static_cast<std::uint32_t>(j));
  }

  // What survived the sweep is the state-0 chain (leftmost = build.back()).
  // Entries are stored bottom-first so suffix_best accumulates rightward
  // bests as the stack is (re)built toward the head.
  lane.roots.clear();
  lane.roots.reserve(build.size());
  TimeNs below = kTimePlusInf;
  for (const std::uint32_t pos : build) {
    below = std::min(segment_best(lane.min_g[pos], lane.m[pos]), below);
    lane.roots.push_back(Entry{pos, below});
  }
  lane.stack = lane.roots;
  lane.pos = 0;
  // Charge the compile like the td_online sweep it replaces (~2 ops per
  // action), so amortization is visible in the same currency.
  if (ops) *ops += 2 * static_cast<std::uint64_t>(n);
}

IncrementalTdState::Lane& IncrementalTdState::lane_for(Quality q,
                                                       std::uint64_t* ops) {
  auto& slot = lanes_[static_cast<std::size_t>(q)];
  if (!slot) {
    slot = std::make_unique<Lane>();
    compile_lane(*slot, q, ops);
  }
  return *slot;
}

void IncrementalTdState::advance_lane(Lane& lane, StateIndex s,
                                      std::uint64_t* ops) const {
  if (lane.pos > s) {
    // Backward probe: rewind to the compiled state-0 chain and re-advance.
    lane.stack = lane.roots;
    lane.pos = 0;
    if (ops) *ops += lane.roots.size();
  }
  std::uint64_t local_ops = 0;
  while (lane.pos < s) {
    // Remove the chain head (always at position lane.pos) and restore the
    // records it was hiding. Children are stored in increasing position
    // order; pushing them in reverse leaves the lowest position on top.
    SPEEDQM_ASSERT(!lane.stack.empty() && lane.stack.back().pos == lane.pos,
                   "IncrementalTdState: chain head out of sync");
    const std::uint32_t head = lane.stack.back().pos;
    lane.stack.pop_back();
    ++local_ops;
    const std::uint32_t first = lane.child_start[head];
    for (std::uint32_t i = lane.child_count[head]; i-- > 0;) {
      const std::uint32_t c = lane.children[first + i];
      const TimeNs below =
          lane.stack.empty() ? kTimePlusInf : lane.stack.back().suffix_best;
      lane.stack.push_back(
          Entry{c, std::min(segment_best(lane.min_g[c], lane.m[c]), below)});
      ++local_ops;
    }
    ++lane.pos;
  }
  if (ops) *ops += local_ops;
}

TimeNs IncrementalTdState::td(StateIndex s, Quality q, std::uint64_t* ops) {
  SPEEDQM_REQUIRE(s < engine_->num_states(),
                  "IncrementalTdState: state out of range");
  SPEEDQM_REQUIRE(engine_->timing().valid_quality(q),
                  "IncrementalTdState: quality out of range");
  const TimingModel& tm = engine_->timing();
  if (ops) ++*ops;

  if (engine_->kind() == PolicyKind::kSafe) {
    // Quality enters Csf only through the first action: one shared
    // suffix-min array answers every (s, q) in O(1).
    ensure_safe_suffix(ops);
    const TimeNs suffix = safe_suffix_min_g_[s];
    if (suffix >= kTimePlusInf) return kTimePlusInf;
    return suffix - tm.cwc_unchecked(s, q) - tm.cwc_qmin_suffix_unchecked(s + 1);
  }

  Lane& lane = lane_for(q, ops);
  advance_lane(lane, s, ops);
  SPEEDQM_ASSERT(!lane.stack.empty() && lane.stack.back().pos == s,
                 "IncrementalTdState: chain head out of sync after advance");
  const TimeNs best = lane.stack.back().suffix_best;
  if (best >= kTimePlusInf) return kTimePlusInf;
  return tm.cav_prefix_unchecked(s, q) + best;
}

Decision IncrementalTdState::decide(StateIndex s, TimeNs t, Quality warm_hint) {
  return engine_->decide_incremental(*this, s, t, warm_hint);
}

}  // namespace speedqm

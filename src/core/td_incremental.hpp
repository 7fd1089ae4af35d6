// Incremental tD evaluation: O(1) amortized per decision as s advances.
//
// The numeric Quality Manager pays a full O(n) td_online forward scan per
// quality probe. But a controlled run probes states in the order the cycle
// visits them — s advances one action at a time — and the mixed policy's
// interval structure
//
//   tD(s, q) = Av_q(s) + min_{k >= s, D(k) finite} [ G(k) - max_{s<=j<=k} M(j) ]
//   M(j) = Av_q(j) + Cwc(j, q) + SufMin(j+1),   G(k) = D(k) + SufMin(k+1)
//
// makes the inner max a *record chain*: the positions j that can carry the
// max for some k are exactly the left-to-right strict maxima of M over
// [s, n). Advancing s to s+1 removes the chain's head and reveals the
// records it was hiding — and those are exactly the segments the backward
// monotone-stack sweep of PolicyEngine::td_column_mixed popped when it
// pushed position s. IncrementalTdState therefore compiles, per probed
// quality, that sweep's pop *forest* once (O(n), the same arithmetic as
// td_column_mixed so values stay bit-identical), and then replays it
// forward: each advance pops the head segment and restores its children,
// each segment is restored at most once per cycle, so a full n-state run
// costs O(n) total — O(1) amortized per decision — with a live O(1) read
// of tD(s, q) at the chain head. No O(n * |Q|) table is precomputed or
// stored: a lane exists only for qualities the search actually probed
// (2-3 in the warm steady state).
//
// The safe policy's tD does not depend on the inner max at all (its CD is
// determined by the first action); one quality-independent suffix-min
// array serves every probe in O(1). The average policy reuses the lane
// machinery with M == 0, which degenerates the forest into a suffix-min
// chain.
//
// Contract: per lane, probes are O(1) amortized while s is non-decreasing
// (the executor's order). Probing an earlier state rewinds the lane to its
// compiled state-0 chain and re-advances — correct, but O(s). rewind()
// re-arms every lane for a new cycle without recompiling anything.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/policy.hpp"
#include "core/types.hpp"
#include "support/time.hpp"

namespace speedqm {

class IncrementalTdState {
 public:
  /// Binds to an engine; compiles nothing until the first probe.
  explicit IncrementalTdState(const PolicyEngine& engine);

  const PolicyEngine& engine() const { return *engine_; }

  /// tD(s, q), bit-identical to engine().td_online(s, q). Adds the work
  /// performed (amortized O(1) on monotone s; O(n) when a lane is first
  /// compiled) to *ops when non-null, matching the manager ops convention.
  TimeNs td(StateIndex s, Quality q, std::uint64_t* ops = nullptr);

  /// The decision Γ(s, t) through the shared prefix search
  /// (PolicyEngine::decide_incremental); bit-identical to decide_scan.
  Decision decide(StateIndex s, TimeNs t, Quality warm_hint = -1);

  /// Re-arms every compiled lane at state 0 (start of a new cycle). Keeps
  /// the compiled forests: O(root-chain length) per lane, no recompilation.
  void rewind();

  /// Drops all compiled lanes and arrays (next probes recompile).
  void clear();

  /// Number of quality lanes compiled so far (<= |Q|).
  std::size_t num_compiled_lanes() const;

  /// Bytes held by compiled lanes — the engine's whole memory footprint
  /// (compare TabledNumericManager's n * |Q| integers).
  std::size_t memory_bytes() const;

 private:
  /// One chain element: a maximal run of k positions sharing the same
  /// running max of M, with the best G - M achievable from here rightward.
  struct Entry {
    std::uint32_t pos = 0;
    TimeNs suffix_best = kTimePlusInf;
  };

  /// Per-quality compiled forest + live chain for one quality level.
  struct Lane {
    // Compiled once per quality (positions 0..n-1):
    std::vector<TimeNs> m;                    ///< M(j)
    std::vector<TimeNs> min_g;                ///< min G over the segment [j, NGE(j))
    std::vector<std::uint32_t> children;      ///< flat pop-forest child lists
    std::vector<std::uint32_t> child_start;   ///< per position into children
    std::vector<std::uint32_t> child_count;   ///< per position
    std::vector<Entry> roots;                 ///< the chain at state 0
    // Live state:
    std::vector<Entry> stack;                 ///< current chain, back = head
    StateIndex pos = 0;                       ///< state the chain head is at

    std::size_t memory_bytes() const;
  };

  Lane& lane_for(Quality q, std::uint64_t* ops);
  void compile_lane(Lane& lane, Quality q, std::uint64_t* ops) const;
  void advance_lane(Lane& lane, StateIndex s, std::uint64_t* ops) const;
  void ensure_safe_suffix(std::uint64_t* ops);

  const PolicyEngine* engine_;
  std::vector<std::unique_ptr<Lane>> lanes_;  ///< indexed by quality
  std::vector<TimeNs> safe_suffix_min_g_;     ///< kSafe: min_{k>=s} G(k)
};

}  // namespace speedqm

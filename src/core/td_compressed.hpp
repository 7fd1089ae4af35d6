// Delta-coded tD arena: the flat 64-bit [state][quality] table at ~2.2-2.4x
// less memory, bit-exact.
//
// Two monotonicity properties make tD tables compressible without loss:
//   * along the quality axis, tD(s, .) is non-increasing (Proposition 2),
//     so a row is its first entry (the anchor) minus non-negative deltas;
//   * along the state axis, tD(., q) is non-decreasing — CD(s..k, q) >=
//     CD(s+1..k, q) for every deadline candidate k (completing an action
//     can only relax the remaining-time border), so adjacent rows differ
//     by roughly one action's cost, orders of magnitude below the row's
//     own delta span.
//
// Measured on the bench grid (synthetic mixed policy, n in {512..4096},
// |Q| in {16..64}): row-anchor deltas need ~28-31 bits — a flat "anchor
// plus 32-bit deltas" layout can never beat 2x against 64-bit entries —
// while adjacent-row differences at fixed quality all fit in 24 bits.
// The layout therefore blocks rows in groups of kBlockRows states:
//
//   block  = | leader row                | follower rows (kBlockRows-1)  |
//            | i64 anchor = tD(s0, 0)    |                               |
//            | u32 deltas anchor-tD(s0,q)| residuals tD(s,q) - tD(s0,q), |
//            | (u64 plane when the row   | width chosen PER BLOCK from   |
//            |  spans >= 2^32, e.g. inf) | 16/24/32 bits (64 = fallback) |
//
// Follower residuals are >= 0 by the state-axis monotonicity; arbitrary
// tables (deserialized, hand-built) that violate it still round-trip
// exactly through the signed 64-bit fallback width. Decoding a probe is
// anchor - leader_delta[q] (+ residual[q]) — two narrow loads and integer
// adds, exact by construction, so every decision path built on top
// (TabledNumericManager, BatchDecisionEngine) stays bit-identical to the
// flat arena, Decision.ops included.
#pragma once

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <vector>

#include "core/policy.hpp"
#include "core/types.hpp"

namespace speedqm {

/// How a tD arena is stored by the tabled decision engines.
enum class ArenaLayout {
  kFlat,        ///< row-major 64-bit entries (the PR-1 layout)
  kCompressed,  ///< block-leader delta coding (this file)
};

const char* to_string(ArenaLayout layout);

class CompressedTdTable {
 public:
  /// States per block: one leader row + kBlockRows-1 residual rows.
  static constexpr StateIndex kBlockRows = 4;

  /// Residual width codes (bytes per follower entry).
  enum : std::uint8_t { kWidth16 = 2, kWidth24 = 3, kWidth32 = 4, kWidth64 = 8 };

  /// Compresses the engine's tD table (offline step, one td_table sweep).
  explicit CompressedTdTable(const PolicyEngine& engine);

  /// Compresses an existing flat row-major [state][quality] table.
  CompressedTdTable(StateIndex num_states, int num_levels,
                    const std::vector<TimeNs>& flat);

  StateIndex num_states() const { return n_; }
  int num_levels() const { return nq_; }
  Quality qmax() const { return nq_ - 1; }

  /// The stored border tD(s, q), exactly as in the flat table (checked).
  TimeNs td(StateIndex s, Quality q) const;

  /// Decoded view of one state's row for the decision hot path: resolves
  /// the block once, then each value(q) is two narrow loads + adds.
  class RowRef {
   public:
    TimeNs value(Quality q) const {
      // All arithmetic in unsigned 64-bit: deltas/residuals are stored as
      // two's-complement differences, so wrapping subtraction and addition
      // reconstruct the original signed value exactly for ANY input table
      // (sentinels included) with no signed-overflow UB.
      std::uint64_t v = static_cast<std::uint64_t>(anchor_);
      v -= ld_wide_ ? ld64_[q] : static_cast<std::uint64_t>(ld32_[q]);
      if (resid_ != nullptr) {
        // Unaligned narrow read; the arena is padded so the 8-byte load
        // never runs off the buffer. kWidth64 stores the signed residual's
        // raw two's-complement bits (fallback for non-monotone tables).
        std::uint64_t raw;
        std::memcpy(&raw, resid_ + static_cast<std::size_t>(q) * rw_, 8);
        if (rw_ != kWidth64) raw &= (std::uint64_t{1} << (8 * rw_)) - 1;
        v += raw;
      }
      return static_cast<TimeNs>(v);
    }

    // Raw plane access for the vector sweep's decode_window
    // (core/batch_sweep.hpp): the same fields value() reads, exposed so a
    // whole four-entry window decodes in registers. The arena planes carry
    // front/back guard pads sized for those window loads (q0 = h - 1 may
    // be -1, and q0 + 3 may run past the row's last entry).
    TimeNs anchor() const { return anchor_; }
    bool wide() const { return ld_wide_; }
    const std::uint32_t* ld32() const { return ld32_; }
    const std::uint64_t* ld64() const { return ld64_; }
    const std::uint8_t* resid() const { return resid_; }
    int width() const { return rw_; }

   private:
    friend class CompressedTdTable;
    TimeNs anchor_ = 0;
    const std::uint32_t* ld32_ = nullptr;
    const std::uint64_t* ld64_ = nullptr;
    const std::uint8_t* resid_ = nullptr;  ///< null for the leader row
    std::uint8_t rw_ = kWidth32;
    bool ld_wide_ = false;
  };

  RowRef row(StateIndex s) const;

  /// The warm-started shared-search decision over the compressed row —
  /// probe for probe the same search as QualityRegionTable::decide_warm,
  /// so decisions (and ops) are bit-identical to the flat layout.
  Decision decide_warm(StateIndex s, TimeNs t, Quality warm_hint,
                       std::uint64_t* ops = nullptr) const;

  /// Exact reconstruction of the flat row-major table.
  std::vector<TimeNs> to_flat() const;

  /// Logical integer count n * |Q| (the paper's table-size metric).
  std::size_t num_integers() const {
    return n_ * static_cast<std::size_t>(nq_);
  }
  /// Actual stored bytes: block metadata + leader planes + residuals.
  std::size_t memory_bytes() const;
  /// What the flat 64-bit layout would occupy (the compression baseline).
  static std::size_t flat_bytes(StateIndex num_states, int num_levels) {
    return num_states * static_cast<std::size_t>(num_levels) * sizeof(TimeNs);
  }

  // --- Serialization body (RegionCompiler writes the magic/version/dims
  // --- header around these; both throw std::runtime_error on bad input).
  void save_body(std::ostream& out) const;
  static CompressedTdTable load_body(std::istream& in, StateIndex num_states,
                                     int num_levels);

 private:
  struct Block {
    TimeNs anchor = 0;         ///< leader row's tD(s0, 0)
    std::uint32_t ld_off = 0;  ///< element offset into ld32_ / ld64_
    std::uint32_t re_off = 0;  ///< byte offset into resid_
    std::uint8_t rw = kWidth32;  ///< follower residual width (bytes)
    std::uint8_t ld_wide = 0;    ///< leader deltas in the u64 plane
  };

  CompressedTdTable() = default;
  void build(const std::vector<TimeNs>& flat);

  StateIndex n_ = 0;
  int nq_ = 0;
  std::vector<Block> blocks_;
  std::vector<std::uint32_t> ld32_;   ///< leader-delta plane (narrow blocks)
  std::vector<std::uint64_t> ld64_;   ///< leader-delta plane (wide blocks)
  std::vector<std::uint8_t> resid_;   ///< packed little-endian residuals
};

}  // namespace speedqm

#include "core/td_compressed.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "core/decision_search.hpp"
#include "support/contract.hpp"

namespace speedqm {

namespace {

// Little-endian stream primitives (same wire conventions as
// core/region_compiler.cpp, which writes the magic/version header around
// this body).

void write_u8(std::ostream& out, std::uint8_t v) {
  out.write(reinterpret_cast<const char*>(&v), 1);
}

void write_u64(std::ostream& out, std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
  out.write(reinterpret_cast<const char*>(b), 8);
}

std::uint8_t read_u8(std::istream& in) {
  unsigned char b;
  in.read(reinterpret_cast<char*>(&b), 1);
  if (!in) throw std::runtime_error("CompressedTdTable: truncated stream");
  return b;
}

std::uint64_t read_u64(std::istream& in) {
  unsigned char b[8];
  in.read(reinterpret_cast<char*>(b), 8);
  if (!in) throw std::runtime_error("CompressedTdTable: truncated stream");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

/// Narrowest residual width whose unsigned range holds every value; the
/// 64-bit fallback also covers "negative" residuals (huge as unsigned),
/// which only arbitrary non-monotone tables can produce.
std::uint8_t pick_width(std::uint64_t max_resid) {
  if (max_resid <= 0xFFFFull) return CompressedTdTable::kWidth16;
  if (max_resid <= 0xFFFFFFull) return CompressedTdTable::kWidth24;
  if (max_resid <= 0xFFFFFFFFull) return CompressedTdTable::kWidth32;
  return CompressedTdTable::kWidth64;
}

// Guard pads keeping every whole-window load of the vector sweep's
// decode_window (core/batch_sweep.hpp) inside the plane allocations. A
// window starts at q0 = hint - 1, one entry BEFORE the row (front pads:
// 1 element / one widest residual = 8 bytes), and the deepest trailing load — a 32-byte kWidth64 window at q0 = nq - 2 —
// runs 16 bytes past the row's last entry (back pads: 2 elements / 16
// bytes; this also covers RowRef::value's 8-byte read of the last narrow
// residual). Pads are zero, never decoded into results: the resolve
// masks discard out-of-row lanes. The serialized body stays pad-free
// (content region only), so the wire format is unchanged.
constexpr std::size_t kLeadFrontPad = 1;   // elements, both leader planes
constexpr std::size_t kLeadBackPad = 2;    // elements, both leader planes
constexpr std::size_t kResidFrontPad = 8;  // bytes
constexpr std::size_t kResidBackPad = 16;  // bytes

}  // namespace

const char* to_string(ArenaLayout layout) {
  return layout == ArenaLayout::kFlat ? "flat" : "compressed";
}

CompressedTdTable::CompressedTdTable(const PolicyEngine& engine)
    : n_(engine.num_states()), nq_(engine.num_levels()) {
  build(engine.td_table());
}

CompressedTdTable::CompressedTdTable(StateIndex num_states, int num_levels,
                                     const std::vector<TimeNs>& flat)
    : n_(num_states), nq_(num_levels) {
  SPEEDQM_REQUIRE(n_ > 0 && nq_ > 0, "CompressedTdTable: empty dimensions");
  SPEEDQM_REQUIRE(flat.size() == n_ * static_cast<std::size_t>(nq_),
                  "CompressedTdTable: data size mismatch");
  build(flat);
}

void CompressedTdTable::build(const std::vector<TimeNs>& flat) {
  const auto nq = static_cast<std::size_t>(nq_);
  const StateIndex num_blocks = (n_ + kBlockRows - 1) / kBlockRows;
  blocks_.reserve(num_blocks);
  // Front guard pads first, so every block offset below includes them.
  ld32_.assign(kLeadFrontPad, 0);
  ld64_.assign(kLeadFrontPad, 0);
  resid_.assign(kResidFrontPad, 0);

  for (StateIndex b = 0; b < num_blocks; ++b) {
    const StateIndex s0 = b * kBlockRows;
    const StateIndex rows = std::min<StateIndex>(kBlockRows, n_ - s0);
    const TimeNs* lead = flat.data() + s0 * nq;

    Block block;
    block.anchor = lead[0];

    // Leader plane: anchor - tD(s0, q), non-negative for any table that is
    // monotone along the quality axis (Proposition 2); u64 plane when the
    // row span does not fit 32 bits (infs, n >~ 10^4 grids).
    std::uint64_t max_ld = 0;
    for (std::size_t q = 0; q < nq; ++q) {
      max_ld = std::max(max_ld, static_cast<std::uint64_t>(block.anchor) -
                                    static_cast<std::uint64_t>(lead[q]));
    }
    block.ld_wide = max_ld > 0xFFFFFFFFull ? 1 : 0;
    if (block.ld_wide) {
      block.ld_off = static_cast<std::uint32_t>(ld64_.size());
      for (std::size_t q = 0; q < nq; ++q) {
        ld64_.push_back(static_cast<std::uint64_t>(block.anchor) -
                        static_cast<std::uint64_t>(lead[q]));
      }
    } else {
      block.ld_off = static_cast<std::uint32_t>(ld32_.size());
      for (std::size_t q = 0; q < nq; ++q) {
        ld32_.push_back(static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(block.anchor) -
            static_cast<std::uint64_t>(lead[q])));
      }
    }

    // Follower residuals tD(s0 + r, q) - tD(s0, q): non-negative by the
    // state-axis monotonicity, and bounded by the few actions the block
    // spans — this is where the narrow widths come from.
    std::uint64_t max_resid = 0;
    for (StateIndex r = 1; r < rows; ++r) {
      const TimeNs* row = flat.data() + (s0 + r) * nq;
      for (std::size_t q = 0; q < nq; ++q) {
        max_resid = std::max(max_resid, static_cast<std::uint64_t>(row[q]) -
                                            static_cast<std::uint64_t>(lead[q]));
      }
    }
    block.rw = pick_width(max_resid);
    block.re_off = static_cast<std::uint32_t>(resid_.size());
    for (StateIndex r = 1; r < rows; ++r) {
      const TimeNs* row = flat.data() + (s0 + r) * nq;
      for (std::size_t q = 0; q < nq; ++q) {
        const std::uint64_t resid = static_cast<std::uint64_t>(row[q]) -
                                    static_cast<std::uint64_t>(lead[q]);
        for (int byte = 0; byte < block.rw; ++byte) {
          resid_.push_back(static_cast<std::uint8_t>((resid >> (8 * byte)) & 0xFF));
        }
      }
    }
    blocks_.push_back(block);
  }
  ld32_.insert(ld32_.end(), kLeadBackPad, 0);
  ld64_.insert(ld64_.end(), kLeadBackPad, 0);
  resid_.insert(resid_.end(), kResidBackPad, 0);
}

CompressedTdTable::RowRef CompressedTdTable::row(StateIndex s) const {
  SPEEDQM_REQUIRE(s < n_, "CompressedTdTable: state out of range");
  const Block& b = blocks_[s / kBlockRows];
  const StateIndex r = s % kBlockRows;
  RowRef ref;
  ref.anchor_ = b.anchor;
  ref.ld_wide_ = b.ld_wide != 0;
  if (ref.ld_wide_) {
    ref.ld64_ = ld64_.data() + b.ld_off;
  } else {
    ref.ld32_ = ld32_.data() + b.ld_off;
  }
  if (r > 0) {
    ref.rw_ = b.rw;
    ref.resid_ = resid_.data() + b.re_off +
                 (r - 1) * static_cast<std::size_t>(nq_) * b.rw;
  }
  return ref;
}

TimeNs CompressedTdTable::td(StateIndex s, Quality q) const {
  SPEEDQM_REQUIRE(q >= 0 && q < nq_, "CompressedTdTable: quality out of range");
  return row(s).value(q);
}

Decision CompressedTdTable::decide_warm(StateIndex s, TimeNs t,
                                        Quality warm_hint,
                                        std::uint64_t* ops) const {
  const RowRef ref = row(s);
  // Same shared prefix search as the flat QualityRegionTable::decide_warm;
  // probe outcomes are equal because decoding is exact, so decisions and
  // Decision.ops are bit-identical across layouts.
  const Decision d = decide_max_quality(nq_ - 1, warm_hint,
                                        [&](Quality q, std::uint64_t*) {
                                          return ref.value(q) >= t;
                                        });
  if (ops) *ops += d.ops;
  return d;
}

std::vector<TimeNs> CompressedTdTable::to_flat() const {
  std::vector<TimeNs> flat;
  flat.reserve(n_ * static_cast<std::size_t>(nq_));
  for (StateIndex s = 0; s < n_; ++s) {
    const RowRef ref = row(s);
    for (Quality q = 0; q < nq_; ++q) flat.push_back(ref.value(q));
  }
  return flat;
}

std::size_t CompressedTdTable::memory_bytes() const {
  return blocks_.size() * sizeof(Block) + ld32_.size() * sizeof(std::uint32_t) +
         ld64_.size() * sizeof(std::uint64_t) + resid_.size();
}

void CompressedTdTable::save_body(std::ostream& out) const {
  write_u64(out, blocks_.size());
  for (const Block& b : blocks_) {
    write_u64(out, static_cast<std::uint64_t>(b.anchor));
    write_u8(out, b.rw);
    write_u8(out, b.ld_wide);
  }
  // Plane sizes are redundant with the per-block flags but serialized and
  // cross-checked on load, so corrupt streams fail loudly instead of
  // decoding garbage. Only the content region is written: the guard pads
  // are a memory-layout detail, re-synthesized on load, so streams saved
  // before the pads existed load unchanged.
  const std::size_t n32 = ld32_.size() - kLeadFrontPad - kLeadBackPad;
  write_u64(out, n32);
  for (std::size_t j = 0; j < n32; ++j) {
    const std::uint32_t v = ld32_[kLeadFrontPad + j];
    for (int i = 0; i < 4; ++i) write_u8(out, static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
  const std::size_t n64 = ld64_.size() - kLeadFrontPad - kLeadBackPad;
  write_u64(out, n64);
  for (std::size_t j = 0; j < n64; ++j) write_u64(out, ld64_[kLeadFrontPad + j]);
  const std::size_t nresid = resid_.size() - kResidFrontPad - kResidBackPad;
  write_u64(out, nresid);
  out.write(reinterpret_cast<const char*>(resid_.data() + kResidFrontPad),
            static_cast<std::streamsize>(nresid));
  if (!out) throw std::runtime_error("CompressedTdTable: write failed");
}

CompressedTdTable CompressedTdTable::load_body(std::istream& in,
                                               StateIndex num_states,
                                               int num_levels) {
  if (num_states == 0 || num_levels <= 0) {
    throw std::runtime_error("CompressedTdTable: corrupt dimensions");
  }
  CompressedTdTable table;
  table.n_ = num_states;
  table.nq_ = num_levels;
  const auto nq = static_cast<std::size_t>(num_levels);
  const StateIndex want_blocks = (num_states + kBlockRows - 1) / kBlockRows;

  const std::uint64_t num_blocks = read_u64(in);
  if (num_blocks != want_blocks) {
    throw std::runtime_error("CompressedTdTable: block count mismatch");
  }
  table.blocks_.reserve(num_blocks);
  std::size_t want_ld32 = 0, want_ld64 = 0, want_resid = 0;
  for (std::uint64_t i = 0; i < num_blocks; ++i) {
    Block b;
    b.anchor = static_cast<TimeNs>(read_u64(in));
    b.rw = read_u8(in);
    b.ld_wide = read_u8(in);
    if ((b.rw != kWidth16 && b.rw != kWidth24 && b.rw != kWidth32 &&
         b.rw != kWidth64) ||
        b.ld_wide > 1) {
      throw std::runtime_error("CompressedTdTable: corrupt block header");
    }
    const StateIndex s0 = static_cast<StateIndex>(i) * kBlockRows;
    const StateIndex rows = std::min<StateIndex>(kBlockRows, num_states - s0);
    if (b.ld_wide) {
      b.ld_off = static_cast<std::uint32_t>(kLeadFrontPad + want_ld64);
      want_ld64 += nq;
    } else {
      b.ld_off = static_cast<std::uint32_t>(kLeadFrontPad + want_ld32);
      want_ld32 += nq;
    }
    b.re_off = static_cast<std::uint32_t>(kResidFrontPad + want_resid);
    want_resid += (rows - 1) * nq * b.rw;
    table.blocks_.push_back(b);
  }

  if (read_u64(in) != want_ld32) {
    throw std::runtime_error("CompressedTdTable: leader plane size mismatch");
  }
  table.ld32_.assign(kLeadFrontPad + want_ld32 + kLeadBackPad, 0);
  for (std::size_t j = 0; j < want_ld32; ++j) {
    std::uint32_t x = 0;
    for (int i = 0; i < 4; ++i) x |= static_cast<std::uint32_t>(read_u8(in)) << (8 * i);
    table.ld32_[kLeadFrontPad + j] = x;
  }
  if (read_u64(in) != want_ld64) {
    throw std::runtime_error("CompressedTdTable: wide leader plane size mismatch");
  }
  table.ld64_.assign(kLeadFrontPad + want_ld64 + kLeadBackPad, 0);
  for (std::size_t j = 0; j < want_ld64; ++j) {
    table.ld64_[kLeadFrontPad + j] = read_u64(in);
  }
  if (read_u64(in) != want_resid) {
    throw std::runtime_error("CompressedTdTable: residual plane size mismatch");
  }
  table.resid_.assign(kResidFrontPad + want_resid + kResidBackPad, 0);
  in.read(reinterpret_cast<char*>(table.resid_.data() + kResidFrontPad),
          static_cast<std::streamsize>(want_resid));
  if (!in) throw std::runtime_error("CompressedTdTable: truncated stream");
  return table;
}

}  // namespace speedqm

// INTERNAL header of the batched decide_all sweep — included only by
// core/batch_engine.cpp and the per-ISA kernel translation units
// (core/batch_sweep_avx2.cpp, core/batch_sweep_avx512.cpp). Not part of
// the public API.
//
// The warm-neighbourhood resolve exists in two equivalent forms: the
// branchy early-exit case analysis of decide_task (the scalar kernel —
// fastest on scalar hardware because a smooth controlled run makes its
// branches predict nearly perfectly) and the branch-free compare/select
// dataflow of resolve_lanes<Backend>, written once and instantiated by
// the AVX2 and AVX-512 backends built under the SPEEDQM_SIMD CMake option
// (ScalarBackend is its one-lane instantiation, kept as the executable
// specification of the dataflow). Both forms case-split the probe
// outcomes identically and fall back to the identical shared search
// beyond the one-step neighbourhood, so decisions (Decision.ops included)
// are bit-identical across kernels — differential-gated by
// tests/test_batch_engine.cpp, tests/test_td_compressed.cpp and
// bench_multi_task.
//
// The vector kernel is ONE group-sweep template, sweep_vector<Isa, Arena>
// (below): the group loop, the lock-step fallback searches, the ragged
// tail and the compressed-row window decode are written here once. Each
// per-ISA translation unit, compiled with its ISA flags, supplies only a
// small op table — lane ops, the window transpose, the interleaved
// Decision store and the row sat-mask build — and instantiates the
// template for both arena layouts. BatchDecisionEngine picks the widest
// kernel AT RUNTIME from __builtin_cpu_supports, so one binary runs
// correctly on any x86-64 machine (the AVX-512 kernel engages only where
// it can execute); every other target runs the scalar sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "core/decision_search.hpp"
#include "core/td_compressed.hpp"
#include "core/types.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace speedqm {
namespace sweep_detail {

/// Arena adapter: the flat 64-bit row-major layout (one load per probe).
/// (External linkage on purpose: it appears in the signatures of the
/// per-ISA kernel entry points below.)
struct FlatArena {
  const TimeNs* const* tables;
  std::size_t nq;

  struct Row {
    const TimeNs* p;
  };
  Row row(std::size_t task, StateIndex s) const {
    return Row{tables[task] + s * nq};
  }
  static TimeNs value(const Row& r, Quality q) { return r.p[q]; }
};

/// Arena adapter: the delta-coded layout (decode per probe; exact).
struct CompressedArena {
  const CompressedTdTable* tables;

  using Row = CompressedTdTable::RowRef;
  Row row(std::size_t task, StateIndex s) const { return tables[task].row(s); }
  static TimeNs value(const Row& r, Quality q) { return r.value(q); }
};

/// Everything one decide_all pass needs, bundled for the kernel calls.
struct SweepArgs {
  const StateIndex* sizes;    ///< per task: number of states
  Quality* hints;             ///< per task: warm hint (updated in place)
  std::size_t num_tasks;
  Quality qmax;
  const StateIndex* states;
  TimeNs t;
  Decision* out;
};

// The helper templates below live in an ANONYMOUS namespace on purpose,
// unusual as that is for a header: the per-ISA translation units include
// this file while compiled with -mavx2 / -mavx512f, and if these
// function templates had external (comdat) linkage the linker could pick
// an ISA-flagged instantiation as the program-wide definition — leaking,
// say, AVX-512 code into the scalar fallback path and crashing the
// "one binary runs on any x86-64" runtime dispatch on older CPUs. With
// internal linkage every translation unit keeps the copy compiled with
// its own ISA flags. (This header is internal: the library's three sweep
// TUs, plus the tests and benches that drive its templates directly.)
namespace {

/// One-lane backend: masks are 0 / ~0 in a plain 64-bit integer, selects
/// are bitwise blends — no branches, so the "scalar" kernel is the same
/// straight-line dataflow the vector kernels run.
struct ScalarBackend {
  static constexpr int kLanes = 1;
  using Vec = std::int64_t;
  using Mask = std::uint64_t;

  static Vec load(const std::int64_t* p) { return *p; }
  static void store(std::int64_t* p, Vec v) { *p = v; }
  static Vec splat(std::int64_t x) { return x; }
  static Vec sub(Vec a, Vec b) { return a - b; }
  static Vec add(Vec a, Vec b) {
    return static_cast<Vec>(static_cast<std::uint64_t>(a) +
                            static_cast<std::uint64_t>(b));
  }
  static Vec shr1(Vec a) {  ///< logical >> 1 (operands are non-negative)
    return static_cast<Vec>(static_cast<std::uint64_t>(a) >> 1);
  }
  static Mask cmpge(Vec a, Vec b) { return a >= b ? ~0ull : 0ull; }
  static Mask cmpgt(Vec a, Vec b) { return a > b ? ~0ull : 0ull; }
  static Mask cmpeq(Vec a, Vec b) { return a == b ? ~0ull : 0ull; }
  static Mask m_and(Mask a, Mask b) { return a & b; }
  static Mask m_andnot(Mask a, Mask b) { return ~a & b; }  ///< (~a) & b
  static Mask m_or(Mask a, Mask b) { return a | b; }
  static Vec select(Mask m, Vec a, Vec b) {  ///< m ? a : b
    return static_cast<Vec>((static_cast<Mask>(a) & m) |
                            (static_cast<Mask>(b) & ~m));
  }
  static std::uint32_t bits(Mask m) { return static_cast<std::uint32_t>(m & 1); }
};

/// Splatted per-call constants shared by every resolve instantiation.
template <class B>
struct ResolveConsts {
  typename B::Vec vt, vqmax, vqtop1, vzero, vone, vtwo;
  explicit ResolveConsts(TimeNs t, Quality qmax)
      : vt(B::splat(t)),
        vqmax(B::splat(qmax)),
        vqtop1(B::splat(qmax - 1)),
        vzero(B::splat(0)),
        vone(B::splat(1)),
        vtwo(B::splat(2)) {}
};

template <class B>
struct ResolveOut {
  typename B::Vec q;         ///< resolved quality (decided lanes)
  typename B::Vec ops;       ///< resolved Decision.ops (decided lanes)
  typename B::Mask decided;  ///< lanes fully resolved by the neighbourhood
  typename B::Mask inf;      ///< decided lanes that are infeasible (q = qmin)
  typename B::Mask climb;    ///< sat(h): an UNDECIDED lane with this set is
                             ///< climbing >= 2, otherwise falling >= 2
};

/// The warm-neighbourhood resolve over one lane group — THE decision
/// dataflow, written once and instantiated by every kernel. Replicates
/// the shared prefix search of core/decision_search.hpp for every outcome
/// within one step of the hint (stay / one step up to the top / one step
/// down / infeasible at qmin) and leaves everything else — climbing or
/// falling two or more levels — undecided for the full search. Probe
/// outcomes, chosen qualities and op counts match decide_max_quality
/// probe for probe.
template <class B>
inline ResolveOut<B> resolve_lanes(typename B::Vec vh, typename B::Vec vup,
                                   typename B::Vec vdn, typename B::Vec h,
                                   const ResolveConsts<B>& c) {
  const typename B::Mask at_top = B::cmpeq(h, c.vqmax);
  const typename B::Mask at_bot = B::cmpeq(h, c.vzero);
  const typename B::Mask sat_h = B::cmpge(vh, c.vt);
  // Effective neighbour probes: clamped loads masked by the edge flags,
  // exactly the (at_top ? ... : ...) guards of the scalar search.
  const typename B::Mask sat_up = B::m_andnot(at_top, B::cmpge(vup, c.vt));
  const typename B::Mask sat_dn = B::m_andnot(at_bot, B::cmpge(vdn, c.vt));

  const typename B::Mask m_stay = B::m_andnot(sat_up, sat_h);
  const typename B::Mask m_up1 =
      B::m_and(B::m_and(sat_h, sat_up), B::cmpeq(h, c.vqtop1));
  const typename B::Mask m_inf = B::m_andnot(sat_h, at_bot);
  const typename B::Mask m_dn1 = B::m_andnot(sat_h, sat_dn);

  ResolveOut<B> r;
  r.decided = B::m_or(B::m_or(m_stay, m_up1), B::m_or(m_inf, m_dn1));
  r.inf = m_inf;
  r.climb = sat_h;
  // q = stay ? h : up1 ? qmax : inf ? qmin : h - 1 (the m_dn1 lane).
  r.q = B::select(m_stay, h, B::sub(h, c.vone));
  r.q = B::select(m_up1, c.vqmax, r.q);
  r.q = B::select(m_inf, c.vzero, r.q);
  // ops = 1 for a lone probe (hint at the top, or qmin infeasible),
  // 2 for every other resolved outcome — the hint plus one neighbour.
  const typename B::Mask one_probe = B::m_or(B::m_and(m_stay, at_top), m_inf);
  r.ops = B::select(one_probe, c.vone, c.vtwo);
  return r;
}

/// The full shared search over one arena row — the fallback beyond the
/// warm neighbourhood, and the cold-start path. Identical to the
/// per-task TabledNumericManager probes (what pins batched == sequential).
template <class Arena>
inline Decision search_row(const typename Arena::Row& row, Quality qmax,
                           Quality hint, TimeNs t) {
  return decide_max_quality(qmax, hint, [&](Quality q, std::uint64_t*) {
    return Arena::value(row, q) >= t;
  });
}

inline int popcount32(std::uint32_t x) { return __builtin_popcount(x); }

/// The vectorized fallback search: every lane a warm resolve left
/// undecided (climbing or falling >= 2 levels) runs decide_max_quality's
/// bounded binary search, all lanes in LOCK STEP — one masked
/// compare/select round per probe depth instead of one branchy scalar
/// search per lane. The probe SCHEDULE is pinned: decide_max_quality's
/// ops counter is part of the Decision contract (it drives the overhead
/// model), so each lane must probe exactly the mids the scalar search
/// would, in order. The vector win therefore comes from resolving the
/// lanes' searches together — shared mid arithmetic, branch-free lo/hi
/// updates, per-lane exit folded into one group-wide mask test — not from
/// reshaping the search. Lanes with shallower searches go inactive early
/// and coast (masked out) until the deepest lane finishes.
///
/// Inputs: `rows`/`hbuf` per lane; `pending` = undecided lanes (bit i);
/// `climb` = pending lanes with sat(h) (from ResolveOut.climb). Probes
/// the resolve already paid for (sat(h), sat(h±1)) are NOT repeated —
/// the prologue enters the binary search mid-ladder exactly where
/// decide_max_quality would, ops included.
///
/// Outputs for pending lanes: qout/oout (quality, Decision.ops) and
/// `*feas_out` bit i clear when lane i is infeasible (q = qmin).
template <class Arena, class B>
inline void search_lanes(const typename Arena::Row* rows,
                         const std::int64_t* hbuf, std::uint32_t pending,
                         std::uint32_t climb, Quality qmax, TimeNs t,
                         std::int64_t* qout, std::int64_t* oout,
                         std::uint32_t* feas_out) {
  constexpr int W = B::kLanes;
  alignas(64) std::int64_t lo[W], hi[W], ops[W], mid[W], probe[W];
  std::uint32_t feas = (1u << W) - 1u;
  for (int i = 0; i < W; ++i) {
    lo[i] = 0;
    hi[i] = 0;  // lo == hi: lane never enters the probe loop
    ops[i] = 0;
    probe[i] = 0;
    if (!(pending & (1u << i))) continue;
    const Quality h = static_cast<Quality>(hbuf[i]);
    if (climb & (1u << i)) {
      // Climbing: sat(h) and sat(h+1) already probed by the resolve.
      lo[i] = h + 1;
      hi[i] = qmax;
      ops[i] = 2;
    } else if (h - 1 == kQmin) {
      // Falling with nothing between: !sat(h), !sat(h-1 = qmin) probed.
      ops[i] = 2;
      feas &= ~(1u << i);
    } else if (Arena::value(rows[i], kQmin) >= t) {
      lo[i] = kQmin;  // qmin holds: search (qmin, h-2], third probe paid
      hi[i] = h - 2;
      ops[i] = 3;
    } else {
      ops[i] = 3;  // even qmin fails
      feas &= ~(1u << i);
    }
  }
  const typename B::Vec vt = B::splat(t);
  const typename B::Vec vone = B::splat(1);
  typename B::Vec vlo = B::load(lo);
  typename B::Vec vhi = B::load(hi);
  typename B::Vec vops = B::load(ops);
  for (;;) {
    const typename B::Mask active = B::cmpgt(vhi, vlo);
    if (B::bits(active) == 0) break;
    // mid = lo + (hi - lo + 1) / 2, decide_max_quality's exact midpoint.
    const typename B::Vec vmid =
        B::add(vlo, B::shr1(B::add(B::sub(vhi, vlo), vone)));
    B::store(mid, vmid);
    const std::uint32_t abits = B::bits(active);
    for (int i = 0; i < W; ++i) {
      if (abits & (1u << i)) {
        probe[i] = Arena::value(rows[i], static_cast<Quality>(mid[i]));
      }
    }
    const typename B::Mask sat = B::m_and(active, B::cmpge(B::load(probe), vt));
    vlo = B::select(sat, vmid, vlo);
    vhi = B::select(B::m_andnot(sat, active), B::sub(vmid, vone), vhi);
    vops = B::select(active, B::add(vops, vone), vops);
  }
  B::store(qout, vlo);
  B::store(oout, vops);
  *feas_out = feas;
}

/// One task decided through the warm-neighbourhood resolve with early
/// exits — the scalar kernel's whole loop body, and the vector kernel's
/// handler for lanes that do not fit a full group (finished/cold lanes,
/// low-occupancy groups, ragged tails). This is the PR-3 branchy resolve,
/// kept branchy on purpose: a feasible controlled run's outcomes are
/// smooth, so these branches predict nearly perfectly and the early exits
/// beat a branch-free dataflow on scalar hardware. The case analysis is
/// the same one resolve_lanes computes with compares + selects, so
/// decisions and Decision.ops agree lane for lane (differential-gated).
template <class Arena>
inline std::uint64_t decide_task(const Arena& arena, const SweepArgs& a,
                                 std::size_t task) {
  const StateIndex s = a.states[task];
  if (s >= a.sizes[task]) return 0;  // finished: out untouched, no ops
  const typename Arena::Row row = arena.row(task, s);
  const Quality h = a.hints[task];
  const Quality qmax = a.qmax;
  const TimeNs t = a.t;
  Decision d;
  if (h >= 0) {
    const bool at_top = h >= qmax;
    const bool at_bottom = h <= kQmin;
    const bool sat_h = Arena::value(row, h) >= t;
    const bool sat_up = !at_top && Arena::value(row, at_top ? h : h + 1) >= t;
    const bool sat_dn =
        !at_bottom && Arena::value(row, at_bottom ? h : h - 1) >= t;
    if (sat_h) {
      if (at_top || !sat_up) {          // stay at the hint
        d.quality = h;
        d.ops = at_top ? 1 : 2;
      } else if (h + 1 == qmax) {       // one step up hits the top
        d.quality = qmax;
        d.ops = 2;
      } else {
        d = search_row<Arena>(row, qmax, h, t);  // climbing: shared search
      }
    } else if (at_bottom) {             // qmin fails: infeasible
      d.quality = kQmin;
      d.feasible = false;
      d.ops = 1;
    } else if (sat_dn) {                // one step down
      d.quality = h - 1;
      d.ops = 2;
    } else {
      d = search_row<Arena>(row, qmax, h, t);    // falling: shared search
    }
  } else {
    d = search_row<Arena>(row, qmax, h, t);      // cold start
  }
  a.hints[task] = d.quality;
  a.out[task] = d;
  return d.ops;
}

/// The scalar sweep: decide_task over every task in order. What
/// Kernel::kScalar and builds without a usable vector ISA run, and the
/// reference every vector kernel is differential-tested against.
template <class Arena>
std::uint64_t sweep_scalar(const Arena& arena, const SweepArgs& a) {
  std::uint64_t total = 0;
  for (std::size_t task = 0; task < a.num_tasks; ++task) {
    total += decide_task(arena, a, task);
  }
  return total;
}

#if defined(__AVX2__)

// --- The vector group sweep. Compiled only into the per-ISA translation
// --- units (the AVX-512 unit's -mavx512f implies AVX2): the neighbourhood
// --- window of one lane is four 64-bit entries, one 256-bit register, for
// --- every ISA.

/// Decodes the compressed row's [q0, q0+3] window into one 64-bit lane
/// vector WITHOUT leaving registers: leader deltas load straight from the
/// block plane (widened from u32 when narrow), residuals load as one
/// 128-bit chunk and unpack per block width with a byte shuffle. Exactly
/// RowRef::value's wrapping arithmetic, four entries at a time. The plane
/// guard pads (td_compressed.cpp) keep every load in-allocation for
/// q0 = -1 and for windows running past the row's last entry; out-of-row
/// lanes decode garbage the resolve masks discard.
inline __m256i decode_window(const CompressedTdTable::RowRef& r, Quality q0) {
  __m256i ld;
  if (r.wide()) {
    ld = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r.ld64() + q0));
  } else {
    ld = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(r.ld32() + q0)));
  }
  __m256i v = _mm256_sub_epi64(_mm256_set1_epi64x(r.anchor()), ld);
  const std::uint8_t* re = r.resid();
  if (re != nullptr) {
    const int w = r.width();
    if (w == CompressedTdTable::kWidth64) {
      // Signed raw-bits fallback: wrapping epi64 add reconstructs exactly.
      v = _mm256_add_epi64(
          v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                 re + static_cast<std::ptrdiff_t>(q0) * 8)));
    } else {
      const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
          re + static_cast<std::ptrdiff_t>(q0) * w));
      __m128i u32;
      if (w == CompressedTdTable::kWidth16) {
        u32 = _mm_shuffle_epi8(raw, _mm_setr_epi8(0, 1, -1, -1, 2, 3, -1, -1,
                                                  4, 5, -1, -1, 6, 7, -1, -1));
      } else if (w == CompressedTdTable::kWidth24) {
        u32 = _mm_shuffle_epi8(raw, _mm_setr_epi8(0, 1, 2, -1, 3, 4, 5, -1,
                                                  6, 7, 8, -1, 9, 10, 11, -1));
      } else {  // kWidth32
        u32 = raw;
      }
      v = _mm256_add_epi64(v, _mm256_cvtepu32_epi64(u32));
    }
  }
  return v;
}

/// Per-lane neighbourhood window [row[h-1], row[h], row[h+1], row[h+2]].
/// Flat arena: one unaligned 256-bit load — the engine pads the arena so
/// every window, including cold hints at the first row and finished tasks
/// one row past their table, stays inside the allocation.
inline __m256i load_window(const FlatArena& arena, const SweepArgs& a,
                           std::size_t j) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
      arena.tables[j] + a.states[j] * arena.nq + a.hints[j] - 1));
}

/// Compressed arena: block-decode in registers. Finished lanes (s = n has
/// no row) and cold lanes (h = -1) clamp to a real row/window — they are
/// never in the `simple` mask, so the decoded garbage is discarded.
inline __m256i load_window(const CompressedArena& arena, const SweepArgs& a,
                           std::size_t j) {
  const StateIndex s = a.states[j] < a.sizes[j] ? a.states[j] : 0;
  const Quality h = a.hints[j] >= 0 ? a.hints[j] : 0;
  return decode_window(arena.tables[j].row(s), h - 1);
}

// The per-ISA op table `Isa` the group sweep is instantiated with:
//   using B = <Backend>;  resolve_lanes' lane ops plus load_i32 (widen W
//                         int32 hints), srlv, bit0 (lanes with bit 0
//                         set), maskz (m ? a : 0), from_bits (lane mask
//                         from bits()' form) and from_scalars (W GPR
//                         values inserted register-to-register);
//   kSparseLanes          groups with at most this many warm live lanes
//                         go to decide_task lane by lane;
//   transpose(load, vdn, vh, vup)
//                         W windows load(0..W-1) into the h-1/h/h+1 lane
//                         vectors;
//   row_satmask(row, nq, t, c)
//                         bit q set iff row[q] >= t, for nq <= 64;
//   store_group(hints, out, q, ops, inf, c)
//                         the W hints packed to 32 bits and the W 24-byte
//                         Decisions {quality | relax_steps = 1, ops,
//                         feasible = !inf} written interleaved.
static_assert(sizeof(Decision) == 24 && offsetof(Decision, quality) == 0 &&
                  offsetof(Decision, relax_steps) == 4 &&
                  offsetof(Decision, ops) == 8 &&
                  offsetof(Decision, feasible) == 16,
              "store_group's interleaved Decision stores assume this layout");

template <class B>
struct GroupSearch {
  typename B::Vec q;      ///< resolved quality per pending lane
  typename B::Vec ops;    ///< Decision.ops per pending lane
  typename B::Mask feas;  ///< clear: pending lane infeasible (q = qmin)
};

/// Vector-NATIVE fallback search over flat rows — search_lanes' pinned
/// probe schedule run entirely in registers. Each pending lane's whole
/// row is compared against t up front (straight-line independent loads
/// the core overlaps freely — no gathers), yielding one satisfiability
/// bitmask per lane (bit q = sat(row[q])); the binary search then
/// replays decide_max_quality's exact midpoint ladder as mask arithmetic
/// — a variable shift plus a test per probe round instead of a dependent
/// memory round trip, which is what makes the lock-step search beat W
/// overlapped scalar searches. Flat arena only (a compressed probe is a
/// decode, not a load) and nq <= 64 only (one bit per level; the caller
/// falls back to search_lanes beyond that). Probe outcomes, chosen
/// qualities and op counts match decide_max_quality probe for probe (the
/// ops ladder is part of the Decision contract); reading row entries the
/// scalar search would not probe has no semantic effect.
template <class Isa>
inline GroupSearch<typename Isa::B> search_group_flat(
    const FlatArena& arena, const SweepArgs& a, std::size_t task,
    typename Isa::B::Vec h, typename Isa::B::Mask pending,
    typename Isa::B::Mask climb, const ResolveConsts<typename Isa::B>& c) {
  using B = typename Isa::B;
  // Per-lane sat masks over the full row, assembled in GPRs and inserted
  // register-to-register (from_scalars) — a scalar-store/vector-load
  // round trip here would stall store-forwarding right on the search's
  // critical path.
  std::uint64_t mk[B::kLanes];
  const int nq = static_cast<int>(arena.nq);
  const std::uint32_t pbits = B::bits(pending);
  for (int i = 0; i < B::kLanes; ++i) {
    std::uint64_t m = 0;
    if (pbits & (1u << i)) {
      m = Isa::row_satmask(
          arena.tables[task + i] + a.states[task + i] * arena.nq, nq, a.t, c);
    }
    mk[i] = m;
  }
  const typename B::Vec vmask = B::from_scalars(mk);
  const typename B::Mask down = B::m_andnot(climb, pending);
  // Falling with h - 1 == qmin: both probes already paid — infeasible.
  const typename B::Mask h1 = B::m_and(down, B::cmpeq(h, c.vone));
  const typename B::Mask pm = B::m_andnot(h1, down);
  // The remaining falling lanes probe qmin up front (the scalar search's
  // third probe): bit 0 of the sat mask.
  const typename B::Mask sat0 = B::m_and(pm, B::bit0(vmask));
  // search_lanes' prologue: climb -> [h+1, qmax] at 2 ops; falling with
  // sat(qmin) -> [qmin, h-2] at 3 ops; everything else keeps lo = hi = 0
  // (never enters the loop, q = qmin) and is infeasible.
  typename B::Vec vlo = B::maskz(climb, B::add(h, c.vone));
  typename B::Vec vhi =
      B::select(climb, c.vqmax, B::maskz(sat0, B::sub(h, c.vtwo)));
  typename B::Vec vops =
      B::select(B::m_or(climb, h1), c.vtwo, B::add(c.vone, c.vtwo));
  // Fixed trip count: every lane's range is at most nq - 1 wide, so
  // ceil(log2(nq - 1)) rounds finish every lane (a done lane's masked
  // updates are no-ops). A counted loop predicts perfectly — a
  // data-dependent exit test would eat one mispredict per search.
  const int rounds =
      nq <= 2 ? 1 : 32 - __builtin_clz(static_cast<unsigned>(nq - 2));
  for (int r = 0; r < rounds; ++r) {
    const typename B::Mask act = B::m_and(pending, B::cmpgt(vhi, vlo));
    // mid = lo + (hi - lo + 1) / 2 = (lo + hi + 1) / 2 (exact for the
    // non-negative bounds here), decide_max_quality's midpoint; the
    // probe is bit mid of the lane's sat mask.
    const typename B::Vec vmid = B::shr1(B::add(B::add(vlo, vhi), c.vone));
    const typename B::Mask sat = B::m_and(act, B::bit0(B::srlv(vmask, vmid)));
    vlo = B::select(sat, vmid, vlo);
    vhi = B::select(B::m_andnot(sat, act), B::sub(vmid, c.vone), vhi);
    vops = B::select(act, B::add(vops, c.vone), vops);
  }
  return {vlo, vops, B::m_or(climb, sat0)};
}

/// The lock-step fallback search over arena rows (search_lanes: one probe
/// per lane and round) for the groups search_group_flat does not take —
/// compressed rows, whose probes are decodes, and |Q| > 64.
template <class B, class Arena>
inline GroupSearch<B> search_group_rows(const Arena& arena, const SweepArgs& a,
                                        std::size_t task, typename B::Vec h,
                                        std::uint32_t pending,
                                        std::uint32_t climb) {
  typename Arena::Row rows[B::kLanes] = {};
  for (int i = 0; i < B::kLanes; ++i) {
    if (pending & (1u << i)) rows[i] = arena.row(task + i, a.states[task + i]);
  }
  alignas(64) std::int64_t hbuf[B::kLanes], q[B::kLanes], ops[B::kLanes];
  B::store(hbuf, h);
  std::uint32_t feas = 0;
  search_lanes<Arena, B>(rows, hbuf, pending, climb, a.qmax, a.t, q, ops,
                         &feas);
  return {B::load(q), B::load(ops), B::from_bits(feas)};
}

/// The vector fast path over either arena: groups of W consecutive tasks
/// decided in vector registers — cursor loads, per-lane neighbourhood
/// window loads (flat: one 256-bit load; compressed: in-register block
/// decode) transposed in-register, the resolve_lanes dataflow, the
/// lock-step fallback search for climbing/falling lanes (flat, |Q| <= 64:
/// register sat masks via search_group_flat; otherwise per-lane probes
/// via search_lanes), and one full-group vector writeback — with the
/// branchy per-lane decide_task for cold lanes, low-occupancy groups and
/// ragged tails. Decisions are bit-identical to the scalar kernel because
/// the resolve case analysis is the same and the fallback replicates the
/// shared search probe for probe.
template <class Isa, class Arena>
std::uint64_t sweep_vector(const Arena& arena, const SweepArgs& a) {
  using B = typename Isa::B;
  using Vec = typename B::Vec;
  using Mask = typename B::Mask;
  constexpr int W = B::kLanes;
  constexpr std::uint32_t kFull = (1u << W) - 1u;
  std::uint64_t total = 0;
  const ResolveConsts<B> consts(a.t, a.qmax);
  const Vec vmone = B::splat(-1);
  Vec vops_acc = consts.vzero;

  std::size_t task = 0;
  for (; task + W <= a.num_tasks; task += W) {
    const Vec s =
        B::load(reinterpret_cast<const std::int64_t*>(a.states + task));
    const Vec n = B::load(reinterpret_cast<const std::int64_t*>(a.sizes + task));
    const Vec h = B::load_i32(a.hints + task);
    const Mask live = B::cmpgt(n, s);
    const std::uint32_t active = B::bits(live);
    if (active == 0) continue;  // whole group finished: no work
    const Mask simple = B::m_and(live, B::cmpgt(h, vmone));  // h > -1
    const std::uint32_t simple_bits = B::bits(simple);
    if (popcount32(simple_bits) <= Isa::kSparseLanes) {
      // Low occupancy (drain tail, cold lanes): the branchy per-lane
      // handler beats paying the vector group cost for so few live lanes
      // (cold lanes run the full cold search exactly once per cycle).
      for (std::uint32_t m = active; m != 0; m &= m - 1) {
        total += decide_task(arena, a, task + __builtin_ctz(m));
      }
      continue;
    }
    // Each lane's three probes are CONTIGUOUS — row[h-1], row[h], row[h+1]
    // — so one whole-window load per lane replaces three 64-bit gathers
    // (slow on many cores), and an in-register transpose turns the W
    // windows into the vdn/vh/vup lane vectors.
    Vec vdn, vh, vup;
    Isa::transpose([&](int i) { return load_window(arena, a, task + i); },
                   vdn, vh, vup);
    const ResolveOut<B> r = resolve_lanes<B>(vh, vup, vdn, h, consts);
    Vec q = r.q;
    Vec ops = r.ops;
    Mask inf = r.inf;
    const Mask fallm = B::m_andnot(r.decided, simple);
    const std::uint32_t fall = B::bits(fallm);
    if (fall != 0) {
      // Climbing/falling lanes: one lock-step masked search for the whole
      // group instead of one branchy scalar search per lane, its results
      // blended over the resolved lanes.
      const Mask climb = B::m_and(r.climb, fallm);
      GroupSearch<B> g;
      if constexpr (std::is_same_v<Arena, FlatArena>) {
        g = arena.nq <= 64
                ? search_group_flat<Isa>(arena, a, task, h, fallm, climb, consts)
                : search_group_rows<B>(arena, a, task, h, fall, B::bits(climb));
      } else {
        g = search_group_rows<B>(arena, a, task, h, fall, B::bits(climb));
      }
      q = B::select(fallm, g.q, q);
      ops = B::select(fallm, g.ops, ops);
      inf = B::m_or(B::m_andnot(fallm, inf), B::m_andnot(g.feas, fallm));
    }
    // Full vector writeback: hints and Decisions straight from registers.
    if (simple_bits == kFull) {  // the steady state: every lane resolved
      Isa::store_group(a.hints + task, a.out + task, q, ops, inf, consts);
      vops_acc = B::add(vops_acc, ops);
      continue;
    }
    // Finished or cold lanes in the group: the full-width store also
    // writes their slots. Finished lanes get their untouched Decision and
    // hint back; cold lanes get their cold hint back and are decided lane
    // by lane, as in the scalar kernel.
    const std::uint32_t finished = kFull & ~active;
    const std::uint32_t cold = active & ~simple_bits;
    alignas(8) unsigned char keep_out[W][sizeof(Decision)];
    Quality keep_hint[W];
    for (std::uint32_t m = finished; m != 0; m &= m - 1) {
      const int i = __builtin_ctz(m);
      std::memcpy(keep_out[i], a.out + task + i, sizeof(Decision));
      keep_hint[i] = a.hints[task + i];
    }
    const Vec lane_ops = B::maskz(simple, ops);
    Isa::store_group(a.hints + task, a.out + task, q, lane_ops, inf, consts);
    vops_acc = B::add(vops_acc, lane_ops);
    for (std::uint32_t m = finished; m != 0; m &= m - 1) {
      const int i = __builtin_ctz(m);
      std::memcpy(a.out + task + i, keep_out[i], sizeof(Decision));
      a.hints[task + i] = keep_hint[i];
    }
    for (std::uint32_t m = cold; m != 0; m &= m - 1) {
      const std::size_t j = task + __builtin_ctz(m);
      a.hints[j] = -1;
      total += decide_task(arena, a, j);
    }
  }
  for (; task < a.num_tasks; ++task) {  // ragged tail
    total += decide_task(arena, a, task);
  }
  alignas(64) std::int64_t acc[W];
  B::store(acc, vops_acc);
  for (int i = 0; i < W; ++i) total += static_cast<std::uint64_t>(acc[i]);
  return total;
}

#endif  // __AVX2__

}  // namespace

// --- Per-ISA kernels (defined in batch_sweep_avx2.cpp /
// --- batch_sweep_avx512.cpp; *_usable() returns false and the sweeps are
// --- never called when their ISA is not compiled in or the running CPU
// --- lacks it).

/// True when the AVX2 kernel is compiled in AND this CPU executes AVX2.
bool avx2_usable();
std::uint64_t sweep_flat_avx2(const FlatArena& arena, const SweepArgs& a);
std::uint64_t sweep_compressed_avx2(const CompressedArena& arena,
                                    const SweepArgs& a);

/// True when the AVX-512 kernel is compiled in AND this CPU executes it.
bool avx512_usable();
std::uint64_t sweep_flat_avx512(const FlatArena& arena, const SweepArgs& a);
std::uint64_t sweep_compressed_avx512(const CompressedArena& arena,
                                      const SweepArgs& a);

}  // namespace sweep_detail
}  // namespace speedqm

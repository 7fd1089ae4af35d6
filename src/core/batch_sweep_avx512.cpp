// AVX-512 op table of the batched decide_all sweep (see core/batch_sweep.hpp
// for the group sweep itself): eight task lanes per group, predicate masks
// in k-registers. Compiled with -mavx512f in this translation unit only;
// the engine calls these kernels only after avx512_usable() confirmed the
// running CPU executes them, so SPEEDQM_SIMD binaries stay portable across
// x86-64 (AVX2-only machines use the AVX2 kernel, everything else the
// scalar one).

// GCC's avx512fintrin.h trips -W(maybe-)uninitialized on its own
// _mm512_undefined_epi32 plumbing when inlined under -Wextra; the
// warnings point inside the system header, not this code.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

#include "core/batch_sweep.hpp"

#if defined(SPEEDQM_SIMD) && defined(__AVX512F__)

namespace speedqm {
namespace sweep_detail {

namespace {

struct Avx512Backend {
  static constexpr int kLanes = 8;
  using Vec = __m512i;
  using Mask = __mmask8;

  static Vec load(const std::int64_t* p) { return _mm512_loadu_si512(p); }
  static void store(std::int64_t* p, Vec v) { _mm512_storeu_si512(p, v); }
  static Vec load_i32(const std::int32_t* p) {
    return _mm512_cvtepi32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static Vec from_scalars(const std::uint64_t* m) {
    return _mm512_set_epi64(
        static_cast<std::int64_t>(m[7]), static_cast<std::int64_t>(m[6]),
        static_cast<std::int64_t>(m[5]), static_cast<std::int64_t>(m[4]),
        static_cast<std::int64_t>(m[3]), static_cast<std::int64_t>(m[2]),
        static_cast<std::int64_t>(m[1]), static_cast<std::int64_t>(m[0]));
  }
  static Vec splat(std::int64_t x) { return _mm512_set1_epi64(x); }
  static Vec sub(Vec a, Vec b) { return _mm512_sub_epi64(a, b); }
  static Vec add(Vec a, Vec b) { return _mm512_add_epi64(a, b); }
  static Vec shr1(Vec a) { return _mm512_srli_epi64(a, 1); }
  static Vec srlv(Vec a, Vec n) { return _mm512_srlv_epi64(a, n); }
  static Mask cmpge(Vec a, Vec b) {
    return _mm512_cmp_epi64_mask(a, b, _MM_CMPINT_NLT);
  }
  static Mask cmpgt(Vec a, Vec b) {
    return _mm512_cmp_epi64_mask(a, b, _MM_CMPINT_NLE);
  }
  static Mask cmpeq(Vec a, Vec b) {
    return _mm512_cmp_epi64_mask(a, b, _MM_CMPINT_EQ);
  }
  static Mask bit0(Vec a) {
    return _mm512_test_epi64_mask(a, _mm512_set1_epi64(1));
  }
  static Mask m_and(Mask a, Mask b) { return static_cast<Mask>(a & b); }
  static Mask m_andnot(Mask a, Mask b) { return static_cast<Mask>(~a & b); }
  static Mask m_or(Mask a, Mask b) { return static_cast<Mask>(a | b); }
  static Vec select(Mask m, Vec a, Vec b) {
    return _mm512_mask_blend_epi64(m, b, a);  // m ? a : b
  }
  static Vec maskz(Mask m, Vec a) { return _mm512_maskz_mov_epi64(m, a); }
  static Mask from_bits(std::uint32_t m) { return static_cast<Mask>(m); }
  static std::uint32_t bits(Mask m) { return m; }
};

struct Avx512 {
  using B = Avx512Backend;
  /// Groups with 1-2 warm live lanes go lane by lane.
  static constexpr int kSparseLanes = 2;

  /// The eight windows are paired into four zmm registers and transposed
  /// into the vdn/vh/vup lane vectors with two-source permutes.
  template <class Load>
  static void transpose(Load load, __m512i& vdn, __m512i& vh, __m512i& vup) {
    const __m512i z01 =
        _mm512_inserti64x4(_mm512_castsi256_si512(load(0)), load(1), 1);
    const __m512i z23 =
        _mm512_inserti64x4(_mm512_castsi256_si512(load(2)), load(3), 1);
    const __m512i z45 =
        _mm512_inserti64x4(_mm512_castsi256_si512(load(4)), load(5), 1);
    const __m512i z67 =
        _mm512_inserti64x4(_mm512_castsi256_si512(load(6)), load(7), 1);
    // Field f of the window (0 = h-1, 1 = h, 2 = h+1) sits at lane f and
    // 4+f of each pair; gather the four pairs' fields into the low 256
    // bits of two permutes, then splice the halves.
    const auto field = [&](int f) {
      const __m512i idx = _mm512_setr_epi64(f, f + 4, f + 8, f + 12, 0, 0, 0, 0);
      const __m512i lo = _mm512_permutex2var_epi64(z01, idx, z23);
      const __m512i hi = _mm512_permutex2var_epi64(z45, idx, z67);
      return _mm512_shuffle_i64x2(lo, hi, 0x44);
    };
    vdn = field(0);
    vh = field(1);
    vup = field(2);
  }

  /// Chunked compares; the tail load is masked so the last row of a table
  /// cannot read past the arena's padding.
  static std::uint64_t row_satmask(const TimeNs* row, int nq, TimeNs,
                                   const ResolveConsts<B>& c) {
    const __mmask8 tail_k =
        static_cast<__mmask8>((1u << (((nq - 1) & 7) + 1)) - 1u);
    std::uint64_t m = 0;
    int q0 = 0;
    for (; q0 + 8 <= nq; q0 += 8) {
      m |= static_cast<std::uint64_t>(_mm512_cmp_epi64_mask(
               _mm512_loadu_si512(row + q0), c.vt, _MM_CMPINT_NLT))
           << q0;
    }
    if (q0 < nq) {
      m |= static_cast<std::uint64_t>(_mm512_mask_cmp_epi64_mask(
               tail_k, _mm512_maskz_loadu_epi64(tail_k, row + q0), c.vt,
               _MM_CMPINT_NLT))
           << q0;
    }
    return m;
  }

  /// Warm hints packed to 32-bit in one store; the three lane-major words
  /// per Decision ({quality | relax}, ops, {feasible}) turned into the
  /// 8 x 24-byte memory interleave by vpermt2q pairs, three stores.
  static void store_group(Quality* hints, Decision* out, __m512i q,
                          __m512i ops, __mmask8 inf,
                          const ResolveConsts<B>& c) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(hints),
                        _mm512_cvtepi64_epi32(q));
    const __m512i w0 = _mm512_or_si512(q, _mm512_set1_epi64(std::int64_t{1} << 32));
    const __m512i w1 = ops;
    const __m512i w2 = _mm512_maskz_mov_epi64(static_cast<__mmask8>(~inf), c.vone);
    // Index pairs: lane j < 8 picks source 1, j >= 8 source 2.
    const __m512i idx_a01 = _mm512_setr_epi64(0, 8, 0, 1, 9, 0, 2, 10);
    const __m512i idx_a2 = _mm512_setr_epi64(0, 1, 8, 3, 4, 9, 6, 7);
    const __m512i idx_b01 = _mm512_setr_epi64(0, 3, 11, 0, 4, 12, 0, 5);
    const __m512i idx_b2 = _mm512_setr_epi64(10, 1, 2, 11, 4, 5, 12, 7);
    const __m512i idx_c01 = _mm512_setr_epi64(13, 0, 6, 14, 0, 7, 15, 0);
    const __m512i idx_c2 = _mm512_setr_epi64(0, 13, 2, 3, 14, 5, 6, 15);
    auto* base = reinterpret_cast<char*>(out);
    _mm512_storeu_si512(base, _mm512_permutex2var_epi64(
                                  _mm512_permutex2var_epi64(w0, idx_a01, w1),
                                  idx_a2, w2));
    _mm512_storeu_si512(base + 64, _mm512_permutex2var_epi64(
                                       _mm512_permutex2var_epi64(w0, idx_b01, w1),
                                       idx_b2, w2));
    _mm512_storeu_si512(base + 128, _mm512_permutex2var_epi64(
                                        _mm512_permutex2var_epi64(w0, idx_c01, w1),
                                        idx_c2, w2));
  }
};

}  // namespace

bool avx512_usable() { return __builtin_cpu_supports("avx512f"); }

std::uint64_t sweep_flat_avx512(const FlatArena& arena, const SweepArgs& a) {
  return sweep_vector<Avx512>(arena, a);
}

std::uint64_t sweep_compressed_avx512(const CompressedArena& arena,
                                      const SweepArgs& a) {
  return sweep_vector<Avx512>(arena, a);
}

}  // namespace sweep_detail
}  // namespace speedqm

#else  // !(SPEEDQM_SIMD && __AVX512F__)

namespace speedqm {
namespace sweep_detail {

bool avx512_usable() { return false; }
std::uint64_t sweep_flat_avx512(const FlatArena&, const SweepArgs&) {
  return 0;
}
std::uint64_t sweep_compressed_avx512(const CompressedArena&,
                                      const SweepArgs&) {
  return 0;
}

}  // namespace sweep_detail
}  // namespace speedqm

#endif

// AVX2 op table of the batched decide_all sweep (see core/batch_sweep.hpp
// for the group sweep itself): four task lanes per group, predicate masks
// as all-ones/all-zeros 64-bit lanes. This translation unit is the only one
// compiled with -mavx2; the engine calls these kernels only after
// avx2_usable() confirmed the running CPU executes them, so SPEEDQM_SIMD=ON
// binaries stay portable across x86-64.
#include "core/batch_sweep.hpp"

#if defined(SPEEDQM_SIMD) && defined(__AVX2__)

namespace speedqm {
namespace sweep_detail {

namespace {

struct Avx2Backend {
  static constexpr int kLanes = 4;
  using Vec = __m256i;
  using Mask = __m256i;

  static Vec load(const std::int64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::int64_t* p, Vec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Vec load_i32(const std::int32_t* p) {
    return _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static Vec from_scalars(const std::uint64_t* m) {
    return _mm256_set_epi64x(
        static_cast<std::int64_t>(m[3]), static_cast<std::int64_t>(m[2]),
        static_cast<std::int64_t>(m[1]), static_cast<std::int64_t>(m[0]));
  }
  static Vec splat(std::int64_t x) { return _mm256_set1_epi64x(x); }
  static Vec sub(Vec a, Vec b) { return _mm256_sub_epi64(a, b); }
  static Vec add(Vec a, Vec b) { return _mm256_add_epi64(a, b); }
  static Vec shr1(Vec a) { return _mm256_srli_epi64(a, 1); }
  static Vec srlv(Vec a, Vec n) { return _mm256_srlv_epi64(a, n); }
  static Mask cmpge(Vec a, Vec b) {  // a >= b  <=>  !(b > a)
    return _mm256_xor_si256(_mm256_cmpgt_epi64(b, a), _mm256_set1_epi64x(-1));
  }
  static Mask cmpgt(Vec a, Vec b) { return _mm256_cmpgt_epi64(a, b); }
  static Mask cmpeq(Vec a, Vec b) { return _mm256_cmpeq_epi64(a, b); }
  static Mask bit0(Vec a) {
    const __m256i one = _mm256_set1_epi64x(1);
    return _mm256_cmpeq_epi64(_mm256_and_si256(a, one), one);
  }
  static Mask m_and(Mask a, Mask b) { return _mm256_and_si256(a, b); }
  static Mask m_andnot(Mask a, Mask b) { return _mm256_andnot_si256(a, b); }
  static Mask m_or(Mask a, Mask b) { return _mm256_or_si256(a, b); }
  static Vec select(Mask m, Vec a, Vec b) { return _mm256_blendv_epi8(b, a, m); }
  static Vec maskz(Mask m, Vec a) { return _mm256_and_si256(m, a); }
  static Mask from_bits(std::uint32_t m) {
    const __m256i lane_bit = _mm256_setr_epi64x(1, 2, 4, 8);
    return _mm256_cmpeq_epi64(
        _mm256_and_si256(_mm256_set1_epi64x(m), lane_bit), lane_bit);
  }
  static std::uint32_t bits(Mask m) {
    return static_cast<std::uint32_t>(
        _mm256_movemask_pd(_mm256_castsi256_pd(m)));
  }
};

struct Avx2 {
  using B = Avx2Backend;
  /// Groups with a single warm live lane go lane by lane.
  static constexpr int kSparseLanes = 1;

  /// 4x4 in-register transpose of the four windows.
  template <class Load>
  static void transpose(Load load, __m256i& vdn, __m256i& vh, __m256i& vup) {
    const __m256i w0 = load(0);
    const __m256i w1 = load(1);
    const __m256i w2 = load(2);
    const __m256i w3 = load(3);
    const __m256i lo01 = _mm256_unpacklo_epi64(w0, w1);  // [A-1 B-1 A+1 B+1]
    const __m256i hi01 = _mm256_unpackhi_epi64(w0, w1);  // [A0  B0  A+2 B+2]
    const __m256i lo23 = _mm256_unpacklo_epi64(w2, w3);
    const __m256i hi23 = _mm256_unpackhi_epi64(w2, w3);
    vdn = _mm256_permute2x128_si256(lo01, lo23, 0x20);
    vh = _mm256_permute2x128_si256(hi01, hi23, 0x20);
    vup = _mm256_permute2x128_si256(lo01, lo23, 0x31);
  }

  /// Chunked compares; the tail falls back to scalar probes so the last
  /// row of a table cannot read past the padding.
  static std::uint64_t row_satmask(const TimeNs* row, int nq, TimeNs t,
                                   const ResolveConsts<B>& c) {
    std::uint64_t m = 0;
    int q0 = 0;
    for (; q0 + 4 <= nq; q0 += 4) {
      m |= static_cast<std::uint64_t>(B::bits(B::cmpge(
               _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + q0)),
               c.vt)))
           << q0;
    }
    for (; q0 < nq; ++q0) {
      m |= static_cast<std::uint64_t>(row[q0] >= t ? 1 : 0) << q0;
    }
    return m;
  }

  /// The 64-bit qualities packed to 32-bit for the warm hints, one store;
  /// the four 24-byte Decisions ({quality, relax_steps = 1}, ops,
  /// {feasible, zeroed padding}) interleaved in registers and written with
  /// three vector stores.
  static void store_group(Quality* hints, Decision* out, __m256i q,
                          __m256i ops, __m256i inf, const ResolveConsts<B>& c) {
    const __m256i q32 = _mm256_permutevar8x32_epi32(
        q, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(hints),
                     _mm256_castsi256_si128(q32));
    const __m256i w0 =  // quality | relax << 32
        _mm256_or_si256(q, _mm256_set1_epi64x(std::int64_t{1} << 32));
    const __m256i w1 = ops;
    const __m256i w2 = _mm256_andnot_si256(inf, c.vone);  // feasible
    auto* base = reinterpret_cast<char*>(out);
    const __m256i ymm_a = _mm256_blend_epi32(
        _mm256_blend_epi32(_mm256_permute4x64_epi64(w0, 0x40),
                           _mm256_permute4x64_epi64(w1, 0x00), 0x0C),
        _mm256_permute4x64_epi64(w2, 0x00), 0x30);
    const __m256i ymm_b = _mm256_blend_epi32(
        _mm256_blend_epi32(_mm256_permute4x64_epi64(w1, 0x81),
                           _mm256_permute4x64_epi64(w2, 0x04), 0x0C),
        _mm256_permute4x64_epi64(w0, 0x20), 0x30);
    const __m256i ymm_c = _mm256_blend_epi32(
        _mm256_blend_epi32(_mm256_permute4x64_epi64(w2, 0xC2),
                           _mm256_permute4x64_epi64(w0, 0x0C), 0x0C),
        _mm256_permute4x64_epi64(w1, 0x30), 0x30);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(base), ymm_a);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(base + 32), ymm_b);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(base + 64), ymm_c);
  }
};

}  // namespace

bool avx2_usable() { return __builtin_cpu_supports("avx2"); }

std::uint64_t sweep_flat_avx2(const FlatArena& arena, const SweepArgs& a) {
  return sweep_vector<Avx2>(arena, a);
}

std::uint64_t sweep_compressed_avx2(const CompressedArena& arena,
                                    const SweepArgs& a) {
  return sweep_vector<Avx2>(arena, a);
}

}  // namespace sweep_detail
}  // namespace speedqm

#else  // !(SPEEDQM_SIMD && __AVX2__)

namespace speedqm {
namespace sweep_detail {

bool avx2_usable() { return false; }
std::uint64_t sweep_flat_avx2(const FlatArena&, const SweepArgs&) { return 0; }
std::uint64_t sweep_compressed_avx2(const CompressedArena&, const SweepArgs&) {
  return 0;
}

}  // namespace sweep_detail
}  // namespace speedqm

#endif

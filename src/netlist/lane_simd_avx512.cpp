// AVX-512 dispatch TU — the only oisa_netlist object compiled with
// -mavx512f. Same minimality rule as lane_simd_avx2.cpp: the
// LaneBlock<512, Avx512> engine variant and the AVX-512 bodies of the
// bitops.h kernels.
#if defined(__AVX512F__)

#include <immintrin.h>

#include "netlist/bitops.h"
#include "netlist/lane_width.h"

namespace oisa::netlist::detail {

std::unique_ptr<AnyBatchEvaluator> makeBatchEvaluatorAvx512(
    std::shared_ptr<const CompiledNetlist> compiled) {
  return std::make_unique<BatchEvaluatorT<LaneBlock<512, LaneArch::Avx512>>>(
      std::move(compiled));
}

namespace {

constexpr int kSelect = 0xca;      // ternary logic: a ? b : c, bitwise
constexpr int kXorAnd = 0x78;      // ternary logic: a ^ (b & c)

__m512i splat(std::uint64_t x) noexcept {
  return _mm512_set1_epi64(static_cast<long long>(x));
}

// GCC 12's unmasked shift and shuffle intrinsics pass an undefined source
// register that -Wuninitialized reports. The zero-masked forms with every
// lane kept compile to the same instructions.
constexpr __mmask8 kAll = 0xff;

template <unsigned J>
__m512i shiftRight(__m512i v) noexcept {
  return _mm512_maskz_srli_epi64(kAll, v, J);
}

template <unsigned J>
__m512i shiftLeft(__m512i v) noexcept {
  return _mm512_maskz_slli_epi64(kAll, v, J);
}

/// Block-swap round j between two registers of eight rows each, rows
/// `lo` and `hi` = lo + j: lo keeps its low halves and takes hi's low
/// halves as its high ones; hi keeps its high halves and takes lo's.
template <unsigned J>
void swapRegisters(__m512i& lo, __m512i& hi) noexcept {
  const __m512i m = splat(swapMask(J));
  const __m512i newLo =
      _mm512_ternarylogic_epi64(m, lo, shiftLeft<J>(hi), kSelect);
  hi = _mm512_ternarylogic_epi64(m, shiftRight<J>(lo), hi, kSelect);
  lo = newLo;
}

/// Block-swap round j < 8 between the lanes of one register: lane L
/// pairs with lane L ^ j, and `low` marks the lanes holding the lower
/// row of their pair. `Swapped` moves every lane to its partner.
template <unsigned J, __mmask8 Low, class Swapped>
__m512i swapLanes(__m512i z, Swapped swapped) noexcept {
  const std::uint64_t m = swapMask(J);
  // The lower row keeps m's bits, the upper row the others.
  const __m512i keep = _mm512_mask_blend_epi64(Low, splat(~m), splat(m));
  const __m512i partner = swapped(z);
  const __m512i moved =
      _mm512_mask_slli_epi64(shiftRight<J>(partner), Low, partner, J);
  return _mm512_ternarylogic_epi64(keep, z, moved, kSelect);
}

}  // namespace

// Hacker's Delight 7-6 block swap on eight registers of eight rows:
// rounds 32, 16 and 8 pair whole registers, rounds 4, 2 and 1 pair lanes
// inside each register through one permute.
void transpose64Avx512(std::uint64_t* rows) noexcept {
  __m512i z[8];
  for (int r = 0; r < 8; ++r) z[r] = _mm512_loadu_si512(rows + 8 * r);
  for (int r = 0; r < 4; ++r) swapRegisters<32>(z[r], z[r + 4]);
  for (const int r : {0, 1, 4, 5}) swapRegisters<16>(z[r], z[r + 2]);
  for (const int r : {0, 2, 4, 6}) swapRegisters<8>(z[r], z[r + 1]);
  for (__m512i& v : z) {
    v = swapLanes<4, 0x0f>(v, [](__m512i x) {
      return _mm512_maskz_shuffle_i64x2(kAll, x, x, _MM_SHUFFLE(1, 0, 3, 2));
    });
    v = swapLanes<2, 0x33>(v, [](__m512i x) {
      return _mm512_maskz_shuffle_i64x2(kAll, x, x, _MM_SHUFFLE(2, 3, 0, 1));
    });
    v = swapLanes<1, 0x55>(v, [](__m512i x) {
      return _mm512_maskz_shuffle_epi32(0xffff, x, _MM_PERM_BADC);
    });
  }
  for (int r = 0; r < 8; ++r) _mm512_storeu_si512(rows + 8 * r, z[r]);
}

// Eight words per step: the twist of words i..i+7 reads words i+1..i+8,
// which the step has not written yet, and words m away, which are either
// untouched (first half) or already final (second half).
void mtRefillAvx512(std::uint64_t* x, std::uint64_t* out) noexcept {
  constexpr std::size_t n = BulkMt19937_64::kStateWords;
  constexpr std::size_t m = kMtShift;
  const __m512i upper = splat(kMtUpper);
  const __m512i matrix = splat(kMtMatrix);
  const __m512i one = splat(1);
  const auto step = [&](std::size_t i, std::size_t far) {
    const __m512i y = _mm512_ternarylogic_epi64(
        upper, _mm512_loadu_si512(x + i), _mm512_loadu_si512(x + i + 1),
        kSelect);
    __m512i v =
        _mm512_xor_si512(_mm512_loadu_si512(x + far), shiftRight<1>(y));
    v = _mm512_mask_xor_epi64(v, _mm512_test_epi64_mask(y, one), v, matrix);
    _mm512_storeu_si512(x + i, v);
    v = _mm512_ternarylogic_epi64(v, shiftRight<29>(v),
                                  splat(0x5555555555555555ull), kXorAnd);
    v = _mm512_ternarylogic_epi64(v, shiftLeft<17>(v),
                                  splat(0x71d67fffeda60000ull), kXorAnd);
    v = _mm512_ternarylogic_epi64(v, shiftLeft<37>(v),
                                  splat(0xfff7eee000000000ull), kXorAnd);
    _mm512_storeu_si512(out + i, _mm512_xor_si512(v, shiftRight<43>(v)));
  };
  const auto scalar = [&](std::size_t i, std::size_t far) {
    x[i] = mtTwist(x[i], x[(i + 1) % n], x[far]);
    out[i] = mtTemper(x[i]);
  };
  std::size_t i = 0;
  for (; i + 8 <= n - m; i += 8) step(i, i + m);
  for (; i < n - m; ++i) scalar(i, i + m);
  for (; i + 8 < n; i += 8) step(i, i - (n - m));
  for (; i < n; ++i) scalar(i, i - (n - m));
}

}  // namespace oisa::netlist::detail

#endif  // __AVX512F__

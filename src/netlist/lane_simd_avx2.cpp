// AVX2 dispatch TU — the only oisa_netlist object compiled with -mavx2.
// It must stay minimal: anything instantiated here is compiled with vector
// flags, so only the LaneBlock<256, Avx2> engine variant and the AVX2
// bodies of the bitops.h kernels may live here.
// (The 64-lane reference carries an `extern template` declaration, so
// including the engine header cannot re-emit it with the wrong flags.)
#if defined(__AVX2__)

#include <immintrin.h>

#include "netlist/bitops.h"
#include "netlist/lane_width.h"

namespace oisa::netlist::detail {

std::unique_ptr<AnyBatchEvaluator> makeBatchEvaluatorAvx2(
    std::shared_ptr<const CompiledNetlist> compiled) {
  return std::make_unique<BatchEvaluatorT<LaneBlock<256, LaneArch::Avx2>>>(
      std::move(compiled));
}

namespace {

__m256i splat(std::uint64_t x) noexcept {
  return _mm256_set1_epi64x(static_cast<long long>(x));
}

/// Block-swap round j between two registers of four rows each, rows `lo`
/// and `hi` = lo + j.
template <unsigned J>
void swapRegisters(__m256i& lo, __m256i& hi) noexcept {
  const __m256i t = _mm256_and_si256(
      _mm256_xor_si256(_mm256_srli_epi64(lo, J), hi), splat(swapMask(J)));
  lo = _mm256_xor_si256(lo, _mm256_slli_epi64(t, J));
  hi = _mm256_xor_si256(hi, t);
}

/// Block-swap round j < 4 between the lanes of one register: lane L pairs
/// with lane L ^ j. `LowDwords` marks, in 32-bit lanes, the lanes holding
/// the lower row of their pair; `swapped` is the register with every lane
/// moved to its partner.
template <unsigned J, int LowDwords>
__m256i swapLanes(__m256i z, __m256i swapped) noexcept {
  // The lower row keeps the mask's bits, the upper row the others.
  const __m256i keep = _mm256_blend_epi32(splat(~swapMask(J)),
                                          splat(swapMask(J)), LowDwords);
  const __m256i moved = _mm256_blend_epi32(_mm256_srli_epi64(swapped, J),
                                           _mm256_slli_epi64(swapped, J),
                                           LowDwords);
  return _mm256_or_si256(_mm256_and_si256(keep, z),
                         _mm256_andnot_si256(keep, moved));
}

}  // namespace

// Hacker's Delight 7-6 block swap. Each round swaps one bit of the row
// index with the same bit of the column index, so the rounds commute:
// each half of 32 rows runs rounds 16 to 1 in eight registers of four
// rows (rounds 2 and 1 pair lanes inside a register through one
// permute), and round 32 pairs the halves last. Sixteen registers would
// hold all 64 rows but spill.
void transpose64Avx2(std::uint64_t* rows) noexcept {
  const auto load = [rows](int r) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + 4 * r));
  };
  const auto store = [rows](int r, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(rows + 4 * r), v);
  };
  for (const int half : {0, 8}) {
    __m256i y[8];
    for (int r = 0; r < 8; ++r) y[r] = load(half + r);
    for (int r = 0; r < 4; ++r) swapRegisters<16>(y[r], y[r + 4]);
    for (const int r : {0, 1, 4, 5}) swapRegisters<8>(y[r], y[r + 2]);
    for (const int r : {0, 2, 4, 6}) swapRegisters<4>(y[r], y[r + 1]);
    for (__m256i& v : y) {
      v = swapLanes<2, 0x0f>(v, _mm256_permute4x64_epi64(v, 0x4e));
      v = swapLanes<1, 0x33>(v, _mm256_shuffle_epi32(v, 0x4e));
    }
    for (int r = 0; r < 8; ++r) store(half + r, y[r]);
  }
  for (int r = 0; r < 8; ++r) {
    __m256i lo = load(r);
    __m256i hi = load(r + 8);
    swapRegisters<32>(lo, hi);
    store(r, lo);
    store(r + 8, hi);
  }
}

// Four words per step; see mtRefillAvx512 for why the steps may read
// ahead.
void mtRefillAvx2(std::uint64_t* x, std::uint64_t* out) noexcept {
  constexpr std::size_t n = BulkMt19937_64::kStateWords;
  constexpr std::size_t m = kMtShift;
  const __m256i upper = splat(kMtUpper);
  const __m256i matrix = splat(kMtMatrix);
  const __m256i one = splat(1);
  const auto load = [](const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  };
  const auto store = [](std::uint64_t* p, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  };
  const auto xorAnd = [](__m256i v, __m256i shifted, std::uint64_t mask) {
    return _mm256_xor_si256(v, _mm256_and_si256(shifted, splat(mask)));
  };
  const auto step = [&](std::size_t i, std::size_t far) {
    const __m256i y =
        _mm256_or_si256(_mm256_and_si256(upper, load(x + i)),
                        _mm256_andnot_si256(upper, load(x + i + 1)));
    const __m256i odd = _mm256_sub_epi64(_mm256_setzero_si256(),
                                         _mm256_and_si256(y, one));
    __m256i v = _mm256_xor_si256(
        _mm256_xor_si256(load(x + far), _mm256_srli_epi64(y, 1)),
        _mm256_and_si256(odd, matrix));
    store(x + i, v);
    v = xorAnd(v, _mm256_srli_epi64(v, 29), 0x5555555555555555ull);
    v = xorAnd(v, _mm256_slli_epi64(v, 17), 0x71d67fffeda60000ull);
    v = xorAnd(v, _mm256_slli_epi64(v, 37), 0xfff7eee000000000ull);
    store(out + i, _mm256_xor_si256(v, _mm256_srli_epi64(v, 43)));
  };
  std::size_t i = 0;
  for (; i + 4 <= n - m; i += 4) step(i, i + m);
  for (; i + 4 < n; i += 4) step(i, i - (n - m));
  for (; i < n; ++i) {
    x[i] = mtTwist(x[i], x[(i + 1) % n], x[i - (n - m)]);
    out[i] = mtTemper(x[i]);
  }
}

}  // namespace oisa::netlist::detail

#endif  // __AVX2__

// oisa_netlist: the W-bit lane block — the SIMD data plane of every
// word-parallel engine.
//
// A LaneBlock<W, Arch> is W independent evaluation lanes stored as W/64
// machine words: the generalization of the repo's original "one uint64_t
// per net" convention to 256/512-bit vectors. Engines keep their data
// planes as flat std::uint64_t arrays with `kWords` words per net (word j
// of a net holds lanes [64j, 64j + 64)), and use LaneBlock purely as the
// register type for gather/op/scatter, so slicing any wide run back into
// 64-lane sub-runs is a stride, not a shuffle — the property the
// differential tests use to prove every width bit-exact against the
// 64-lane reference engines.
//
// Three architectures, each with one width in the shipped engines:
//  * LaneArch::Portable — std::uint64_t[kWords] with plain loops; valid
//    for any W and the only variant normal translation units may
//    instantiate. The engines instantiate it at W=64 only: the 64-bit
//    portable block is the canonical reference.
//  * LaneArch::Avx2 — W=256 as one __m256i; defined only when the
//    including TU is compiled with -mavx2 (the dedicated dispatch TUs).
//  * LaneArch::Avx512 — W=512 as one __m512i; defined only under
//    -mavx512f, likewise.
//
// The intrinsic specializations are deliberately invisible elsewhere:
// only the per-arch instantiation TUs (e.g. lane_simd_avx2.cpp) name
// them, so no AVX code can leak into objects that must run on
// x86-64-v2-only hosts. Runtime selection lives in netlist/lane_width.h.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "netlist/gate.h"

namespace oisa::netlist {

/// Implementation flavor of a LaneBlock. Portable is valid everywhere;
/// the vector flavors exist only in TUs compiled with the matching ISA.
enum class LaneArch : std::uint8_t { Portable, Avx2, Avx512 };

/// W-lane block, W/64 uint64 words. Primary template: portable fallback.
template <std::size_t W, LaneArch A = LaneArch::Portable>
struct LaneBlock {
  static_assert(A == LaneArch::Portable,
                "intrinsic LaneBlock specializations are provided "
                "separately (and only under the matching -m flags)");
  static_assert(W >= 64 && W % 64 == 0, "lane width must be a multiple of 64");

  static constexpr std::size_t kBits = W;
  static constexpr std::size_t kWords = W / 64;
  static constexpr LaneArch kArch = A;

  std::uint64_t w[kWords];

  [[nodiscard]] static LaneBlock load(const std::uint64_t* p) noexcept {
    LaneBlock b;
    for (std::size_t i = 0; i < kWords; ++i) b.w[i] = p[i];
    return b;
  }
  void store(std::uint64_t* p) const noexcept {
    for (std::size_t i = 0; i < kWords; ++i) p[i] = w[i];
  }
  [[nodiscard]] static LaneBlock splat(std::uint64_t v) noexcept {
    LaneBlock b;
    for (std::size_t i = 0; i < kWords; ++i) b.w[i] = v;
    return b;
  }
  [[nodiscard]] static LaneBlock zero() noexcept { return splat(0); }
  [[nodiscard]] static LaneBlock ones() noexcept {
    return splat(~std::uint64_t{0});
  }

  /// Slice-to-u64: lanes [64j, 64j + 64) of the block.
  [[nodiscard]] std::uint64_t word(std::size_t j) const noexcept {
    return w[j];
  }

  [[nodiscard]] friend LaneBlock operator&(LaneBlock a, LaneBlock b) noexcept {
    for (std::size_t i = 0; i < kWords; ++i) a.w[i] &= b.w[i];
    return a;
  }
  [[nodiscard]] friend LaneBlock operator|(LaneBlock a, LaneBlock b) noexcept {
    for (std::size_t i = 0; i < kWords; ++i) a.w[i] |= b.w[i];
    return a;
  }
  [[nodiscard]] friend LaneBlock operator^(LaneBlock a, LaneBlock b) noexcept {
    for (std::size_t i = 0; i < kWords; ++i) a.w[i] ^= b.w[i];
    return a;
  }
  [[nodiscard]] LaneBlock operator~() const noexcept {
    LaneBlock b;
    for (std::size_t i = 0; i < kWords; ++i) b.w[i] = ~w[i];
    return b;
  }
  [[nodiscard]] friend bool operator==(const LaneBlock& a,
                                       const LaneBlock& b) noexcept {
    std::uint64_t diff = 0;
    for (std::size_t i = 0; i < kWords; ++i) diff |= a.w[i] ^ b.w[i];
    return diff == 0;
  }

  /// True when any lane is set ("any-lane-changed" on an XOR).
  [[nodiscard]] bool any() const noexcept {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kWords; ++i) acc |= w[i];
    return acc != 0;
  }
};

#if defined(__AVX2__)
/// 256-lane block as one AVX2 vector. Only the -mavx2 dispatch TUs may
/// name this type.
template <>
struct LaneBlock<256, LaneArch::Avx2> {
  static constexpr std::size_t kBits = 256;
  static constexpr std::size_t kWords = 4;
  static constexpr LaneArch kArch = LaneArch::Avx2;

  __m256i v;

  [[nodiscard]] static LaneBlock load(const std::uint64_t* p) noexcept {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  void store(std::uint64_t* p) const noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  [[nodiscard]] static LaneBlock splat(std::uint64_t x) noexcept {
    return {_mm256_set1_epi64x(static_cast<long long>(x))};
  }
  [[nodiscard]] static LaneBlock zero() noexcept {
    return {_mm256_setzero_si256()};
  }
  [[nodiscard]] static LaneBlock ones() noexcept { return splat(~std::uint64_t{0}); }

  [[nodiscard]] std::uint64_t word(std::size_t j) const noexcept {
    alignas(32) std::uint64_t tmp[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), v);
    return tmp[j];
  }

  [[nodiscard]] friend LaneBlock operator&(LaneBlock a, LaneBlock b) noexcept {
    return {_mm256_and_si256(a.v, b.v)};
  }
  [[nodiscard]] friend LaneBlock operator|(LaneBlock a, LaneBlock b) noexcept {
    return {_mm256_or_si256(a.v, b.v)};
  }
  [[nodiscard]] friend LaneBlock operator^(LaneBlock a, LaneBlock b) noexcept {
    return {_mm256_xor_si256(a.v, b.v)};
  }
  [[nodiscard]] LaneBlock operator~() const noexcept {
    return {_mm256_xor_si256(v, ones().v)};
  }
  [[nodiscard]] friend bool operator==(const LaneBlock& a,
                                       const LaneBlock& b) noexcept {
    return _mm256_testz_si256(_mm256_xor_si256(a.v, b.v),
                              _mm256_xor_si256(a.v, b.v)) != 0;
  }
  [[nodiscard]] bool any() const noexcept {
    return _mm256_testz_si256(v, v) == 0;
  }
};
#endif  // __AVX2__

#if defined(__AVX512F__)
/// 512-lane block as one AVX-512 vector. Only the -mavx512f dispatch TUs
/// may name this type.
template <>
struct LaneBlock<512, LaneArch::Avx512> {
  static constexpr std::size_t kBits = 512;
  static constexpr std::size_t kWords = 8;
  static constexpr LaneArch kArch = LaneArch::Avx512;

  __m512i v;

  [[nodiscard]] static LaneBlock load(const std::uint64_t* p) noexcept {
    return {_mm512_loadu_si512(p)};
  }
  void store(std::uint64_t* p) const noexcept { _mm512_storeu_si512(p, v); }
  [[nodiscard]] static LaneBlock splat(std::uint64_t x) noexcept {
    return {_mm512_set1_epi64(static_cast<long long>(x))};
  }
  [[nodiscard]] static LaneBlock zero() noexcept {
    return {_mm512_setzero_si512()};
  }
  [[nodiscard]] static LaneBlock ones() noexcept { return splat(~std::uint64_t{0}); }

  [[nodiscard]] std::uint64_t word(std::size_t j) const noexcept {
    alignas(64) std::uint64_t tmp[8];
    _mm512_store_si512(tmp, v);
    return tmp[j];
  }

  [[nodiscard]] friend LaneBlock operator&(LaneBlock a, LaneBlock b) noexcept {
    return {_mm512_and_epi64(a.v, b.v)};
  }
  [[nodiscard]] friend LaneBlock operator|(LaneBlock a, LaneBlock b) noexcept {
    return {_mm512_or_epi64(a.v, b.v)};
  }
  [[nodiscard]] friend LaneBlock operator^(LaneBlock a, LaneBlock b) noexcept {
    return {_mm512_xor_epi64(a.v, b.v)};
  }
  [[nodiscard]] LaneBlock operator~() const noexcept {
    // vpternlogq 0x55 = NOT(a), one op instead of xor-with-ones.
    return {_mm512_ternarylogic_epi64(v, v, v, 0x55)};
  }
  [[nodiscard]] friend bool operator==(const LaneBlock& a,
                                       const LaneBlock& b) noexcept {
    return _mm512_cmpneq_epi64_mask(a.v, b.v) == 0;
  }
  [[nodiscard]] bool any() const noexcept {
    return _mm512_test_epi64_mask(v, v) != 0;
  }
};
#endif  // __AVX512F__

/// The canonical 64-lane reference block.
using LaneBlock64 = LaneBlock<64, LaneArch::Portable>;

/// Block-parallel gate function: every lane of a/b/c is an independent
/// evaluation. Mirrors the scalar evalGate bit-for-bit in every lane at
/// every width — the one gate table every lane engine shares (the event
/// wheel calls it at LaneBlock64).
template <class Block>
[[nodiscard]] inline Block evalGateBlock(GateKind kind, Block a, Block b,
                                         Block c) noexcept {
  switch (kind) {
    case GateKind::Const0: return Block::zero();
    case GateKind::Const1: return Block::ones();
    case GateKind::Buf: return a;
    case GateKind::Inv: return ~a;
    case GateKind::And2: return a & b;
    case GateKind::Or2: return a | b;
    case GateKind::Nand2: return ~(a & b);
    case GateKind::Nor2: return ~(a | b);
    case GateKind::Xor2: return a ^ b;
    case GateKind::Xnor2: return ~(a ^ b);
    case GateKind::And3: return a & b & c;
    case GateKind::Or3: return a | b | c;
    case GateKind::Aoi21: return ~((a & b) | c);
    case GateKind::Oai21: return ~((a | b) & c);
    case GateKind::Mux2: return (c & b) | (~c & a);
    case GateKind::Maj3: return (a & b) | (a & c) | (b & c);
  }
  return Block::zero();
}

}  // namespace oisa::netlist

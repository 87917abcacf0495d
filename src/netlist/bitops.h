// oisa_netlist: shared word-level bit manipulation primitives.
//
// Home of the 64x64 bit-matrix transpose that every 64-lane subsystem uses
// to convert between pattern-major words (one word per pattern/row) and
// lane-major words (one word per net/feature, bit L = lane L): the
// stimulus packer, the timed trace collector, and the packed ML feature
// extraction and prediction. Beside it lives the
// bulk MT19937-64 engine the workloads draw their stimuli from.
//
// Both primitives run one of three kernels, picked once from the CPU
// (cpuSupportsLaneArch in netlist/lane_width.h), the same way the engines
// pick their lane width: AVX-512, else AVX2, else portable code. Every
// kernel computes the same bits. The vector kernels live in the per-arch
// dispatch TUs (lane_simd_avx2.cpp, lane_simd_avx512.cpp); the portable
// ones and the selection in lane_width.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace oisa::netlist {

enum class LaneArch : std::uint8_t;  // defined in netlist/lane_block.h

/// One 64x64 transpose kernel: rows[0..63] in place.
using Transpose64Kernel = void (*)(std::uint64_t* rows) noexcept;

/// The transpose kernel for `arch`. Throws std::invalid_argument for a
/// kernel this build/CPU cannot run.
[[nodiscard]] Transpose64Kernel transpose64Kernel(LaneArch arch);

/// The widest transpose kernel this CPU runs, picked on first use.
[[nodiscard]] Transpose64Kernel transpose64Kernel() noexcept;

/// In-place transpose of a 64x64 bit matrix stored as 64 row words
/// (bit j of rows[i] = element (i, j)), through transpose64Kernel().
void transpose64(std::span<std::uint64_t, 64> rows) noexcept;

/// A UniformRandomBitGenerator that yields std::mt19937_64's exact
/// sequence for every seed, refilled 312 words at a time: the kernel
/// twists the whole state and tempers it into a buffer that operator()
/// and fill() read from. std::uniform_int_distribution and
/// std::uniform_real_distribution only call the engine, so they draw the
/// same values through either engine.
class BulkMt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;
  /// One refill kernel: twists state[0..311] in place and writes its
  /// 312 tempered outputs to out.
  using RefillKernel = void (*)(std::uint64_t* state,
                                std::uint64_t* out) noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~result_type{0};
  }

  /// Seeded like std::mt19937_64(seed), refilled by the widest kernel
  /// this CPU runs.
  explicit BulkMt19937_64(result_type seed = 5489u) noexcept;
  /// Refilled by the kernel for `arch`. Throws std::invalid_argument for
  /// a kernel this build/CPU cannot run.
  BulkMt19937_64(result_type seed, LaneArch arch);

  result_type operator()() noexcept {
    if (pos_ == kStateWords) refill();
    return out_[pos_++];
  }

  /// Writes the next out.size() draws: the values that many operator()
  /// calls return.
  void fill(std::span<std::uint64_t> out) noexcept;

 private:
  void refill() noexcept {
    refill_(state_.data(), out_.data());
    pos_ = 0;
  }

  alignas(64) std::array<std::uint64_t, kStateWords> state_{};
  alignas(64) std::array<std::uint64_t, kStateWords> out_{};
  std::size_t pos_ = kStateWords;
  RefillKernel refill_;
};

namespace detail {

// Implemented in the per-arch dispatch TUs (the only objects compiled with
// -mavx2 / -mavx512f). Declared unconditionally; defined only when CMake
// detected the flags (OISA_HAVE_AVX2 / OISA_HAVE_AVX512), and called only
// after a cpuSupportsLaneArch() check.
void transpose64Avx2(std::uint64_t* rows) noexcept;
void transpose64Avx512(std::uint64_t* rows) noexcept;
void mtRefillAvx2(std::uint64_t* state, std::uint64_t* out) noexcept;
void mtRefillAvx512(std::uint64_t* state, std::uint64_t* out) noexcept;

/// The mask of the transpose's block-swap round j: the low j bits of
/// every 2j-bit group.
consteval std::uint64_t swapMask(unsigned j) {
  std::uint64_t m = 0;
  for (unsigned bit = 0; bit < 64; ++bit) {
    if ((bit / j) % 2 == 0) m |= std::uint64_t{1} << bit;
  }
  return m;
}

/// MT19937-64's parameters, shared by every refill kernel.
inline constexpr std::size_t kMtShift = 156;  // m: the twist's far word
inline constexpr std::uint64_t kMtMatrix = 0xb5026f5aa96619e9ull;
inline constexpr std::uint64_t kMtUpper = ~std::uint64_t{0} << 31;
inline constexpr std::uint64_t kMtLower = ~kMtUpper;

/// One twisted word: state word i from words i and i + 1 and the word m
/// away from i.
[[nodiscard]] constexpr std::uint64_t mtTwist(std::uint64_t cur,
                                              std::uint64_t next,
                                              std::uint64_t far) noexcept {
  const std::uint64_t y = (cur & kMtUpper) | (next & kMtLower);
  // Branch-free: y's low bit is a coin flip no predictor learns.
  return far ^ (y >> 1) ^ (kMtMatrix & (0 - (y & 1u)));
}

[[nodiscard]] constexpr std::uint64_t mtTemper(std::uint64_t x) noexcept {
  x ^= (x >> 29) & 0x5555555555555555ull;
  x ^= (x << 17) & 0x71d67fffeda60000ull;
  x ^= (x << 37) & 0xfff7eee000000000ull;
  return x ^ (x >> 43);
}

}  // namespace detail

}  // namespace oisa::netlist

// oisa_netlist: shared word-level bit manipulation primitives.
//
// Home of the 64x64 bit-matrix transpose that every 64-lane subsystem uses
// to convert between pattern-major words (one word per pattern/row) and
// lane-major words (one word per net/feature, bit L = lane L): the
// functional BatchEvaluator, the timed trace collector, and the packed ML
// feature extraction.
#pragma once

#include <cstdint>
#include <span>

namespace oisa::netlist {

/// In-place transpose of a 64x64 bit matrix stored as 64 row words
/// (bit j of rows[i] = element (i, j)).
inline void transpose64(std::span<std::uint64_t, 64> rows) noexcept {
  // Hacker's Delight 7-6 block-swap, in LSB-first convention: at each step,
  // exchange the upper-right and lower-left j x j sub-blocks of every
  // 2j x 2j block along the diagonal.
  std::uint64_t m = 0x00000000ffffffffull;
  for (std::size_t j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (std::size_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((rows[k] >> j) ^ rows[k + j]) & m;
      rows[k] ^= t << j;
      rows[k + j] ^= t;
    }
  }
}

}  // namespace oisa::netlist

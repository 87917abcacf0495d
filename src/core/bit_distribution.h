// oisa_core: bit-level-equivalent error distributions (paper Fig. 10).
//
// Arithmetic errors are translated to their equivalent bit positions by
// XOR-ing two value streams (e.g. y_gold vs y_diamond for structural
// errors, y_silver vs y_gold for timing errors) and counting per-position
// flip rates, the "internal error rate" of the paper.
#pragma once

#include <cstdint>
#include <vector>

namespace oisa::core {

/// Per-bit-position flip-rate histogram between two value streams.
class BitErrorDistribution {
 public:
  /// `width` — number of bit positions tracked (sum bits, optionally +1 for
  /// the carry-out).
  explicit BitErrorDistribution(int width);

  /// Records one cycle: every differing bit position gets one flip count.
  void add(std::uint64_t observed, std::uint64_t reference) noexcept;

  /// Internal error rate of every bit position (flips / cycles), LSB
  /// first.
  [[nodiscard]] std::vector<double> rates() const;

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }
  [[nodiscard]] std::uint64_t flips(int position) const {
    return flips_.at(static_cast<std::size_t>(position));
  }

 private:
  int width_;
  std::uint64_t cycles_ = 0;
  std::vector<std::uint64_t> flips_;
};

}  // namespace oisa::core

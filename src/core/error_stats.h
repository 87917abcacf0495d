// oisa_core: streaming accumulators for error statistics.
//
// All paper metrics are computed from streams of per-cycle signed errors:
// mean, mean absolute, RMS (the paper's headline metric for relative
// errors), error rate and worst case. The accumulator is single-pass and
// O(1) memory so ten-million-sample characterizations stream through it.
// Only ErrorCombination (error_model.h) feeds it the errors of output
// values; every study reads its statistics from there.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace oisa::core {

/// Single-pass accumulator over a stream of (signed) error values.
class ErrorStats {
 public:
  /// Records one error observation.
  void add(double error) noexcept {
    n_ += 1;
    sum_ += error;
    sumAbs_ += std::abs(error);
    sumSq_ += error * error;
    minV_ = std::min(minV_, error);
    maxV_ = std::max(maxV_, error);
    if (error != 0.0) nonzero_ += 1;
  }

  /// Records `count` observations of +0.0, bit for bit like `count` calls
  /// of add(0.0): a sum that starts at +0.0 is never -0.0 (under
  /// round-to-nearest an exact-zero sum is +0.0), and adding +0.0 to any
  /// other value returns it unchanged.
  void addZeros(std::uint64_t count) noexcept {
    if (count == 0) return;
    n_ += count;
    minV_ = std::min(minV_, 0.0);
    maxV_ = std::max(maxV_, 0.0);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept {
    return n_ ? sum_ / static_cast<double>(n_) : 0.0;
  }
  [[nodiscard]] double meanAbs() const noexcept {
    return n_ ? sumAbs_ / static_cast<double>(n_) : 0.0;
  }
  /// Root mean square — the paper's main relative-error metric
  /// (proportional to 1/SNR, independent of adder bit-width).
  [[nodiscard]] double rms() const noexcept {
    return n_ ? std::sqrt(sumSq_ / static_cast<double>(n_)) : 0.0;
  }
  /// Fraction of observations with a non-zero error.
  [[nodiscard]] double errorRate() const noexcept {
    return n_ ? static_cast<double>(nonzero_) / static_cast<double>(n_) : 0.0;
  }
  [[nodiscard]] double minValue() const noexcept { return n_ ? minV_ : 0.0; }
  [[nodiscard]] double maxValue() const noexcept { return n_ ? maxV_ : 0.0; }
  [[nodiscard]] double maxAbs() const noexcept {
    return n_ ? std::max(std::abs(minV_), std::abs(maxV_)) : 0.0;
  }

 private:
  std::uint64_t n_ = 0;
  std::uint64_t nonzero_ = 0;
  double sum_ = 0.0;
  double sumAbs_ = 0.0;
  double sumSq_ = 0.0;
  double minV_ = std::numeric_limits<double>::infinity();
  double maxV_ = -std::numeric_limits<double>::infinity();
};

}  // namespace oisa::core

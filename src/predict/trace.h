// oisa_predict: per-cycle trace records of an overclocked circuit.
//
// One record captures everything the paper's data-collection step needs at
// a cycle: the input vector x[t], the pure-RTL output yRTL[t] (here y_gold:
// the gate-level netlist's output settled under x[t], which the collector
// checks against the behavioral ISA model), and the gate-level sampled
// output y[t] (y_silver) at the overclocked period. The exact sum
// y_diamond is also carried for the error-combination study.
#pragma once

#include <cstdint>
#include <vector>

namespace oisa::predict {

/// One clock cycle of stimulus and responses. The five words come first
/// and the four flags share the tail word: 48 bytes instead of 72.
struct TraceRecord {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t diamond = 0;      ///< exact sum bits
  std::uint64_t gold = 0;         ///< settled (correctly clocked) sum bits
  std::uint64_t silver = 0;       ///< gate-level overclocked sampled sum bits
  bool carryIn = false;
  bool diamondCout = false;
  bool goldCout = false;
  bool silverCout = false;

  /// Full unsigned output values (carry-out composed above the sum bits);
  /// the paper's arithmetic metrics operate on these. At width 64 the
  /// carry-out does not fit in the composed word and is dropped.
  [[nodiscard]] std::uint64_t diamondValue(int width) const noexcept {
    return compose(diamond, diamondCout, width);
  }
  [[nodiscard]] std::uint64_t goldValue(int width) const noexcept {
    return compose(gold, goldCout, width);
  }
  [[nodiscard]] std::uint64_t silverValue(int width) const noexcept {
    return compose(silver, silverCout, width);
  }

 private:
  [[nodiscard]] static std::uint64_t compose(std::uint64_t sum, bool cout,
                                             int width) noexcept {
    if (width >= 64) return sum;
    return sum | (static_cast<std::uint64_t>(cout ? 1 : 0) << width);
  }
};

using Trace = std::vector<TraceRecord>;

}  // namespace oisa::predict

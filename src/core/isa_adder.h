// oisa_core: behavioral (bit-exact) model of the Inexact Speculative Adder.
//
// This is the paper's "golden" abstraction level: the output of the
// implemented RTL, containing structural errors only (y_gold). It models,
// per speculative path: the carry SPECulator (look-ahead over the preceding
// S bits with the window carry-in speculated at 0), the sub-ADDer, and the
// COMPensation block (conditional +-1 correction of the C LSBs, and
// force-balancing of the R MSBs of the preceding sum when correction is
// impossible). The gate-level netlist generated by oisa_circuits implements
// the same function and is cross-checked against this model in tests.
#pragma once

#include <cstdint>
#include <vector>

#include "core/isa_config.h"

namespace oisa::core {

/// Result of one ISA addition.
struct IsaSum {
  std::uint64_t sum = 0;  ///< width-bit result (structurally approximate)
  bool carryOut = false;  ///< carry-out of the most significant path

  /// Full unsigned output value: carry-out composed above the sum bits
  /// (width+1-bit result). All of the paper's arithmetic/relative error
  /// metrics operate on this value — using the truncated sum alone would
  /// produce wrap-around artifacts whenever a + b overflows the width.
  /// At width 64 the carry-out does not fit and is dropped.
  [[nodiscard]] std::uint64_t value(int width) const noexcept {
    if (width >= 64) return sum;
    return sum | (static_cast<std::uint64_t>(carryOut ? 1 : 0) << width);
  }
};

/// Per-path bookkeeping exposed for tests, examples and error analysis.
struct PathTrace {
  bool specCarry = false;    ///< carry chosen by the SPEC block
  bool trueCarryIn = false;  ///< carry-out of the preceding sub-adder
  int faultDirection = 0;    ///< +1 missed carry, -1 spurious carry, 0 none
  bool corrected = false;    ///< +-1 correction applied to this path's sum
  bool balanced = false;     ///< reduction applied to the *preceding* sum
  std::uint64_t rawSum = 0;  ///< local sum before compensation
  /// Net signed arithmetic contribution of this path's fault to the total
  /// structural error (0 when no fault or when fully corrected): the missed
  /// or spurious block carry combined with the balancing adjustment applied
  /// to the preceding sum.
  std::int64_t errorContribution = 0;
};

/// Translates one path's fault contribution into its equivalent bit
/// position, floor(log2 |contribution|), as the paper does for the
/// structural series of Fig. 10; -1 when the path contributes no error.
[[nodiscard]] int equivalentBitPosition(const PathTrace& trace) noexcept;

/// Behavioral Inexact Speculative Adder.
///
/// Thread-safe after construction (all state is immutable configuration).
class IsaAdder {
 public:
  explicit IsaAdder(const IsaConfig& cfg);

  /// Adds two width-bit unsigned operands; extra high bits are ignored.
  /// Allocation-free.
  [[nodiscard]] IsaSum add(std::uint64_t a, std::uint64_t b,
                           bool carryIn = false) const;

  /// Like add(), also filling one PathTrace per speculative path (one
  /// default PathTrace for the exact adder).
  [[nodiscard]] IsaSum addTraced(std::uint64_t a, std::uint64_t b,
                                 bool carryIn,
                                 std::vector<PathTrace>& traces) const;

  /// Exact width-bit reference (y_diamond). Defined here so the trace
  /// collector's per-record call inlines.
  [[nodiscard]] IsaSum exactAdd(std::uint64_t a, std::uint64_t b,
                                bool carryIn = false) const noexcept {
    a &= mask_;
    b &= mask_;
    // Split the top bit off so width-64 carry-out is computable without
    // 65-bit arithmetic.
    const std::uint64_t lowMask = mask_ >> 1;
    const std::uint64_t low = (a & lowMask) + (b & lowMask) +
                              (carryIn ? 1u : 0u);
    const int top = cfg_.width - 1;
    const std::uint64_t topSum = ((a >> top) & 1u) + ((b >> top) & 1u) +
                                 ((low >> top) & 1u);
    IsaSum r;
    r.sum = ((low & lowMask) | ((topSum & 1u) << top)) & mask_;
    r.carryOut = (topSum >> 1) != 0;
    return r;
  }

  /// Signed structural error  E_struct = y_gold - y_diamond  of one
  /// addition, over full composed values (sum plus carry-out).
  [[nodiscard]] std::int64_t structuralError(std::uint64_t a, std::uint64_t b,
                                             bool carryIn = false) const;

  [[nodiscard]] const IsaConfig& config() const noexcept { return cfg_; }

  /// Width-bit operand mask.
  [[nodiscard]] std::uint64_t mask() const noexcept { return mask_; }

 private:
  /// The one adder core behind add() and addTraced(); fills `traces`
  /// (pathCount() entries) when non-null.
  [[nodiscard]] IsaSum addPaths(std::uint64_t a, std::uint64_t b,
                                bool carryIn, PathTrace* traces) const;

  IsaConfig cfg_;
  std::uint64_t mask_;
  std::uint64_t blockMask_;
};

}  // namespace oisa::core

// oisa_core: design-point description of an Inexact Speculative Adder.
//
// A design is the paper's quadruple (block, spec, correction, reduction) on
// a fixed operand width, or the exact reference adder. The same IsaConfig
// drives both the behavioral model (core) and the gate-level generator
// (circuits), which are cross-checked for equivalence in tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace oisa::core {

/// Parameters of an Inexact Speculative Adder design point.
///
/// Paper notation: quadruple (block size, SPEC size, correction, reduction),
/// e.g. (8,0,0,4) = 8-bit blocks, carry speculated constant-0, no
/// correction, 4-bit error reduction on the preceding sum.
struct IsaConfig {
  int width = 32;      ///< total adder width in bits (N)
  int block = 8;       ///< speculative path width (K); width % block == 0
  int spec = 0;        ///< carry-speculation window size (S), 0..block
  int correction = 0;  ///< correctable LSBs of the local sum (C), 0..block
  int reduction = 0;   ///< balanced MSBs of the preceding sum (R), 0..block
  bool exact = false;  ///< exact reference adder (other fields ignored)
  /// Speculation polarity. The paper's designs speculate the window
  /// carry-in at 0 (false): a fault can only be a *missed* carry. The dual
  /// policy assumes the window carry-in is 1 (the ISCAS'15 architecture's
  /// other direction): faults can then also be *spurious* carries,
  /// exercising the decrement-correction / force-down-balancing hardware.
  bool speculateHigh = false;

  /// Paper-style display name: "(8,0,0,4)" or "exact"; speculate-at-1
  /// designs get a '+' suffix, e.g. "(8,2,1,4)+".
  [[nodiscard]] std::string name() const;

  /// Number of concurrent speculative paths (width / block); 1 when exact.
  [[nodiscard]] int pathCount() const noexcept {
    return exact ? 1 : width / block;
  }

  /// Throws std::invalid_argument if the parameters are inconsistent, or
  /// on the two shapes the behavioral model cannot compute (block 64, and
  /// block 1 at width 64).
  void validate() const;

  friend bool operator==(const IsaConfig&, const IsaConfig&) = default;
};

/// Convenience constructor matching the paper's quadruple notation.
[[nodiscard]] IsaConfig makeIsa(int block, int spec, int correction,
                                int reduction, int width = 32);

/// The exact reference adder at the given width.
[[nodiscard]] IsaConfig makeExact(int width = 32);

/// The twelve designs evaluated in the paper (Section V-A): eleven ISA
/// quadruples plus the exact adder, all 32-bit, all fitting the 0.3 ns
/// timing constraint.
[[nodiscard]] const std::vector<IsaConfig>& paperDesigns();

}  // namespace oisa::core

// oisa_core: approximate multiplier built on Inexact Speculative Adders.
//
// The ISA architecture "has already been successfully verified and
// integrated in multiplier circuits" (paper Sec. II, ref [9]). This module
// models that integration: a WxW -> 2W array multiplier whose partial
// products are accumulated by a 2W-bit ISA adder per row, so every
// structural approximation of the adder configuration propagates into the
// product. It is a behavioral model (examples/approx_multiplier).
#pragma once

#include <cstdint>

#include "core/isa_adder.h"
#include "core/isa_config.h"

namespace oisa::core {

/// Configuration of the ISA-based array multiplier.
struct MultiplierConfig {
  int width = 16;    ///< operand width W (product is 2W bits, W <= 32)
  IsaConfig adder;   ///< accumulation adder config; adder.width must be 2W

  void validate() const;

  /// Convenience: multiplier of width W whose row adders use the quadruple
  /// (block, spec, correction, reduction) at width 2W.
  [[nodiscard]] static MultiplierConfig make(int width, int block, int spec,
                                             int correction, int reduction);
  /// Exact reference multiplier of width W.
  [[nodiscard]] static MultiplierConfig makeExact(int width);
};

/// Behavioral ISA-based array multiplier.
class IsaMultiplier {
 public:
  explicit IsaMultiplier(const MultiplierConfig& cfg);

  /// Approximate product of two width-bit unsigned operands.
  [[nodiscard]] std::uint64_t multiply(std::uint64_t a,
                                       std::uint64_t b) const;

  /// Exact 2W-bit reference product.
  [[nodiscard]] std::uint64_t exactMultiply(std::uint64_t a,
                                            std::uint64_t b) const noexcept;

  /// Signed structural error of one product.
  [[nodiscard]] std::int64_t structuralError(std::uint64_t a,
                                             std::uint64_t b) const;

  [[nodiscard]] const MultiplierConfig& config() const noexcept {
    return cfg_;
  }

 private:
  MultiplierConfig cfg_;
  IsaAdder rowAdder_;
  std::uint64_t operandMask_;
};

}  // namespace oisa::core

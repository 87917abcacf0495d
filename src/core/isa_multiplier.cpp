#include "core/isa_multiplier.h"

#include <stdexcept>

namespace oisa::core {

void MultiplierConfig::validate() const {
  if (width < 1 || width > 32) {
    throw std::invalid_argument("MultiplierConfig: width must be 1..32");
  }
  adder.validate();
  if (adder.width != 2 * width) {
    throw std::invalid_argument(
        "MultiplierConfig: adder.width must be twice the operand width");
  }
}

MultiplierConfig MultiplierConfig::make(int width, int block, int spec,
                                        int correction, int reduction) {
  MultiplierConfig cfg;
  cfg.width = width;
  cfg.adder = makeIsa(block, spec, correction, reduction, 2 * width);
  cfg.validate();
  return cfg;
}

MultiplierConfig MultiplierConfig::makeExact(int width) {
  MultiplierConfig cfg;
  cfg.width = width;
  cfg.adder = oisa::core::makeExact(2 * width);
  cfg.validate();
  return cfg;
}

IsaMultiplier::IsaMultiplier(const MultiplierConfig& cfg)
    : cfg_(cfg), rowAdder_(cfg.adder) {
  cfg_.validate();
  operandMask_ = cfg_.width >= 64 ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << cfg_.width) - 1;
}

std::uint64_t IsaMultiplier::multiply(std::uint64_t a,
                                      std::uint64_t b) const {
  a &= operandMask_;
  b &= operandMask_;
  // Row-by-row accumulation, exactly like the gate-level array: the running
  // sum goes through the (approximate) 2W-bit row adder once per set of
  // partial-product bits. Row 0 initializes the accumulator directly.
  std::uint64_t acc = (b & 1u) ? a : 0;
  for (int i = 1; i < cfg_.width; ++i) {
    const std::uint64_t pp = ((b >> i) & 1u) ? (a << i) : 0;
    acc = rowAdder_.add(acc, pp).sum;
  }
  return acc;
}

std::uint64_t IsaMultiplier::exactMultiply(std::uint64_t a,
                                           std::uint64_t b) const noexcept {
  return (a & operandMask_) * (b & operandMask_);
}

}  // namespace oisa::core

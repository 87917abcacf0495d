// ISA-based approximate multiplier tests: behavioral semantics, exactness
// with exact row adders, and error scaling with the adder configuration.
#include <gtest/gtest.h>

#include <random>

#include "core/error_model.h"
#include "core/isa_multiplier.h"

namespace {

using oisa::core::ErrorCombination;
using oisa::core::IsaMultiplier;
using oisa::core::MultiplierConfig;
using oisa::core::OutputTriple;

/// The errors of `mul` over `n` uniform operand pairs drawn from `seed`,
/// folded like an adder's: y_diamond the exact product, y_gold = y_silver
/// the approximate one.
ErrorCombination productErrors(const IsaMultiplier& mul, int n,
                               std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  ErrorCombination errors;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t a = rng() & 0xffffu;
    const std::uint64_t b = rng() & 0xffffu;
    const std::uint64_t approx = mul.multiply(a, b);
    errors.add(OutputTriple{mul.exactMultiply(a, b), approx, approx});
  }
  return errors;
}

TEST(MultiplierConfigTest, ValidatesAdderWidth) {
  MultiplierConfig bad;
  bad.width = 16;
  bad.adder = oisa::core::makeIsa(8, 0, 0, 4, 16);  // should be 32
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_NO_THROW(MultiplierConfig::make(16, 8, 0, 0, 4).validate());
  EXPECT_THROW((void)MultiplierConfig::make(40, 8, 0, 0, 4),
               std::invalid_argument);
}

TEST(MultiplierTest, ExactRowAddersGiveExactProducts) {
  const IsaMultiplier mul(MultiplierConfig::makeExact(16));
  std::mt19937_64 rng(3);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t a = rng() & 0xffffu;
    const std::uint64_t b = rng() & 0xffffu;
    EXPECT_EQ(mul.multiply(a, b), a * b);
    EXPECT_EQ(mul.exactMultiply(a, b), a * b);
  }
}

TEST(MultiplierTest, SmallWidthExhaustiveWithExactAdder) {
  const IsaMultiplier mul(MultiplierConfig::makeExact(4));
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      EXPECT_EQ(mul.multiply(a, b), a * b);
    }
  }
}

TEST(MultiplierTest, ApproximateAdderKeepsSmallRelativeError) {
  // A high-accuracy row adder: products stay close to exact.
  const IsaMultiplier mul(MultiplierConfig::make(16, 16, 7, 0, 8));
  const ErrorCombination errors = productErrors(mul, 5000, 7);
  EXPECT_LT(errors.relStruct().maxAbs(), 0.05);
  // Errors exist (it is approximate) but are not the common case.
  EXPECT_LT(errors.arithStruct().errorRate(), 0.5);
}

TEST(MultiplierTest, CoarserAdderGivesLargerErrors) {
  const IsaMultiplier coarse(MultiplierConfig::make(16, 8, 0, 0, 0));
  const IsaMultiplier balanced(MultiplierConfig::make(16, 8, 0, 0, 4));
  const IsaMultiplier fine(MultiplierConfig::make(16, 16, 7, 0, 8));
  const auto meanAbs = [](const IsaMultiplier& mul) {
    return productErrors(mul, 5000, 11).arithStruct().meanAbs();
  };
  EXPECT_GT(meanAbs(coarse), meanAbs(balanced));
  EXPECT_GT(meanAbs(balanced), meanAbs(fine));
}

}  // namespace

// ISA-based approximate multiplier tests: behavioral semantics, exactness
// with exact row adders, and error scaling with the adder configuration.
#include <gtest/gtest.h>

#include <random>

#include "core/isa_multiplier.h"

namespace {

using oisa::core::IsaMultiplier;
using oisa::core::MultiplierConfig;

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
    EXPECT_EQ(mul.structuralError(a, b), 0);
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
  std::mt19937_64 rng(7);
  double worstRel = 0.0;
  int nonzeroErrors = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t a = rng() & 0xffffu;
    const std::uint64_t b = rng() & 0xffffu;
    const std::int64_t e = mul.structuralError(a, b);
    if (e != 0) ++nonzeroErrors;
    const std::uint64_t exact = mul.exactMultiply(a, b);
    if (exact != 0) {
      worstRel = std::max(
          worstRel, std::abs(static_cast<double>(e)) /
                        static_cast<double>(exact));
    }
  }
  EXPECT_LT(worstRel, 0.05);
  // Errors exist (it is approximate) but are not the common case.
  EXPECT_LT(nonzeroErrors, 5000 / 2);
}

TEST(MultiplierTest, CoarserAdderGivesLargerErrors) {
  const IsaMultiplier coarse(MultiplierConfig::make(16, 8, 0, 0, 0));
  const IsaMultiplier balanced(MultiplierConfig::make(16, 8, 0, 0, 4));
  const IsaMultiplier fine(MultiplierConfig::make(16, 16, 7, 0, 8));
  std::mt19937_64 rng(11);
  double meanCoarse = 0.0, meanBalanced = 0.0, meanFine = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t a = rng() & 0xffffu;
    const std::uint64_t b = rng() & 0xffffu;
    meanCoarse += std::abs(static_cast<double>(coarse.structuralError(a, b)));
    meanBalanced +=
        std::abs(static_cast<double>(balanced.structuralError(a, b)));
    meanFine += std::abs(static_cast<double>(fine.structuralError(a, b)));
  }
  EXPECT_GT(meanCoarse, meanBalanced);
  EXPECT_GT(meanBalanced, meanFine);
}

}  // namespace

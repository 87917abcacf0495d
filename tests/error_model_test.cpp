// Error-model tests: the paper's signed decomposition (Figs. 4-5), the
// streaming statistics, the span fold against the per-triple fold, and
// the bit-level-equivalent distribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/bit_distribution.h"
#include "core/error_model.h"
#include "core/error_stats.h"

namespace {

using oisa::core::BitErrorDistribution;
using oisa::core::decomposeErrors;
using oisa::core::ErrorCombination;
using oisa::core::ErrorSample;
using oisa::core::ErrorStats;
using oisa::core::OutputTriple;

TEST(ErrorModelTest, AdditiveErrorsMatchFigure4) {
  // y_diamond=8, y_gold=6, y_silver=4: both contributions are -2/8 and add.
  const ErrorSample s = decomposeErrors(OutputTriple{8, 6, 4});
  EXPECT_EQ(s.eStruct, -2);
  EXPECT_EQ(s.eTiming, -2);
  EXPECT_EQ(s.eJoint, -4);
  ASSERT_TRUE(s.reStruct.has_value());
  EXPECT_DOUBLE_EQ(*s.reStruct, -0.25);
  EXPECT_DOUBLE_EQ(*s.reTiming, -0.25);
  EXPECT_DOUBLE_EQ(*s.reJoint, -0.5);
}

TEST(ErrorModelTest, CompensatingErrorsMatchFigure5) {
  // y_diamond=8, y_gold=6, y_silver=7: timing error +1/8 cancels part of
  // the structural -2/8.
  const ErrorSample s = decomposeErrors(OutputTriple{8, 6, 7});
  EXPECT_EQ(s.eStruct, -2);
  EXPECT_EQ(s.eTiming, +1);
  EXPECT_EQ(s.eJoint, -1);
  EXPECT_DOUBLE_EQ(*s.reStruct, -0.25);
  EXPECT_DOUBLE_EQ(*s.reTiming, 0.125);
  EXPECT_DOUBLE_EQ(*s.reJoint, -0.125);
}

TEST(ErrorModelTest, JointIsAlwaysSumOfContributions) {
  std::mt19937_64 rng(3);
  for (int i = 0; i < 5000; ++i) {
    const OutputTriple t{rng() & 0xffffffffull, rng() & 0xffffffffull,
                         rng() & 0xffffffffull};
    const ErrorSample s = decomposeErrors(t);
    EXPECT_EQ(s.eJoint, s.eStruct + s.eTiming);
    if (t.diamond != 0) {
      EXPECT_NEAR(*s.reJoint, *s.reStruct + *s.reTiming, 1e-12);
    } else {
      EXPECT_FALSE(s.reJoint.has_value());
    }
  }
}

TEST(ErrorModelTest, WidthSixtyFourErrorsWrapInsteadOfOverflowing) {
  // Composed values at width 64 use bit 63: int64 casts of the values
  // would overflow, the wrapped differences do not.
  const OutputTriple t{0x7ffffffffffffff0ull, 0x8000000000000010ull,
                       0x7ffffffffffffff8ull};
  const ErrorSample s = decomposeErrors(t);
  EXPECT_EQ(s.eStruct, 32);
  EXPECT_EQ(s.eTiming, -24);
  EXPECT_EQ(s.eJoint, 8);
  ErrorCombination combo;
  combo.add(t);
  combo.add(std::span(&t, 1));
  EXPECT_EQ(combo.arithStruct().maxValue(), 32.0);
  EXPECT_EQ(combo.arithTiming().minValue(), -24.0);
}

TEST(ErrorModelTest, ZeroDiamondSkipsRelativeErrors) {
  ErrorCombination combo;
  combo.add(OutputTriple{0, 5, 5});
  combo.add(OutputTriple{10, 10, 10});
  EXPECT_EQ(combo.cycles(), 2u);
  EXPECT_EQ(combo.skippedRelative(), 1u);
  EXPECT_EQ(combo.relStruct().count(), 1u);
  EXPECT_EQ(combo.arithStruct().count(), 2u);
}

TEST(ErrorStatsTest, MomentsMatchClosedForm) {
  ErrorStats stats;
  stats.add(1.0);
  stats.add(-3.0);
  stats.add(0.0);
  stats.add(2.0);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.meanAbs(), 1.5);
  EXPECT_DOUBLE_EQ(stats.rms(), std::sqrt((1.0 + 9.0 + 0.0 + 4.0) / 4.0));
  EXPECT_DOUBLE_EQ(stats.errorRate(), 0.75);
  EXPECT_DOUBLE_EQ(stats.minValue(), -3.0);
  EXPECT_DOUBLE_EQ(stats.maxValue(), 2.0);
  EXPECT_DOUBLE_EQ(stats.maxAbs(), 3.0);
}

TEST(ErrorStatsTest, EmptyAccumulatorIsAllZero) {
  const ErrorStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.rms(), 0.0);
  EXPECT_EQ(stats.errorRate(), 0.0);
  EXPECT_EQ(stats.maxAbs(), 0.0);
}

/// Triples mixing y_diamond = 0, all-zero errors, negative and positive
/// errors and width-64 values.
std::vector<OutputTriple> mixedTriples(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<OutputTriple> out(n);
  const std::uint64_t mask = 0x1ffffffffull;  // a 32-bit adder's values
  for (OutputTriple& t : out) {
    switch (rng() % 5) {
      case 0:  // y_diamond = 0: arithmetic only
        t = {0, rng() % 4, rng() % 4};
        break;
      case 1:  // all three errors zero
        t.diamond = t.gold = t.silver = rng() & mask;
        break;
      case 2:  // negative errors, a timing error one cycle in three
        t.diamond = (rng() & mask) | (1ull << 32);
        t.gold = t.diamond - rng() % 64;
        t.silver = t.gold - (rng() % 3 == 0 ? rng() % 1024 : 0);
        break;
      case 3:  // width-64 values
        t.diamond = rng();
        t.gold = rng() % 2 == 0 ? t.diamond : rng();
        t.silver = rng() % 2 == 0 ? t.gold : rng();
        break;
      default:  // positive errors
        t.diamond = rng() & mask;
        t.gold = t.diamond + rng() % 64;
        t.silver = t.gold + (rng() % 4 == 0 ? rng() % 4096 : 0);
        break;
    }
  }
  return out;
}

/// Every field of `a` and `b` is bit-identical.
void expectSameBits(const ErrorStats& a, const ErrorStats& b) {
  // count, nonzero, sum, sumAbs, sumSq, min, max: no padding to compare.
  static_assert(sizeof(ErrorStats) ==
                2 * sizeof(std::uint64_t) + 5 * sizeof(double));
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(ErrorStats)), 0)
      << "count " << a.count() << " vs " << b.count() << ", mean "
      << a.mean() << " vs " << b.mean() << ", min " << a.minValue()
      << " vs " << b.minValue();
}

void expectSameBits(const ErrorCombination& a, const ErrorCombination& b) {
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_EQ(a.skippedRelative(), b.skippedRelative());
  expectSameBits(a.arithStruct(), b.arithStruct());
  expectSameBits(a.arithTiming(), b.arithTiming());
  expectSameBits(a.arithJoint(), b.arithJoint());
  expectSameBits(a.relStruct(), b.relStruct());
  expectSameBits(a.relTiming(), b.relTiming());
  expectSameBits(a.relJoint(), b.relJoint());
}

TEST(ErrorCombinationTest, SpanFoldEqualsPerTripleFoldBitForBit) {
  for (const std::size_t n : {0, 1, 255, 256, 257, 10000}) {
    SCOPED_TRACE(std::to_string(n) + " triples");
    const std::vector<OutputTriple> triples = mixedTriples(n, 11 + n);
    ErrorCombination reference;
    for (const OutputTriple& t : triples) reference.add(t);

    ErrorCombination whole;
    whole.add(std::span<const OutputTriple>(triples));
    expectSameBits(whole, reference);

    // Split into uneven pieces, some of them empty.
    ErrorCombination split;
    const std::size_t pieces[] = {1, 0, 7, 256, 63, 257, 1000};
    for (std::size_t first = 0, i = 0; first < n; ++i) {
      const std::size_t size = std::min(pieces[i % 7], n - first);
      split.add(std::span(triples).subspan(first, size));
      first += size;
    }
    expectSameBits(split, reference);
  }
}

TEST(ErrorCombinationTest, SpanFoldWithoutZeroTermsKeepsItsExtremes) {
  // No zero error anywhere: no zero count may reach the minimum or the
  // maximum.
  const std::vector<OutputTriple> triples = {{100, 103, 110}, {50, 52, 60}};
  ErrorCombination reference;
  for (const OutputTriple& t : triples) reference.add(t);
  ErrorCombination folded;
  folded.add(std::span<const OutputTriple>(triples));
  expectSameBits(folded, reference);
  EXPECT_EQ(folded.arithStruct().minValue(), 2.0);
  EXPECT_EQ(folded.arithTiming().minValue(), 7.0);
}

TEST(BitDistributionTest, CountsFlippedPositions) {
  BitErrorDistribution dist(8);
  dist.add(0b10000001, 0b00000001);  // bit 7 flipped
  dist.add(0b00000000, 0b00000001);  // bit 0 flipped
  dist.add(0b00000001, 0b00000001);  // identical
  EXPECT_EQ(dist.cycles(), 3u);
  EXPECT_EQ(dist.flips(7), 1u);
  EXPECT_EQ(dist.flips(0), 1u);
  EXPECT_EQ(dist.flips(3), 0u);
  EXPECT_DOUBLE_EQ(dist.rates()[7], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(dist.rates()[3], 0.0);
}

TEST(BitDistributionTest, MasksBitsBeyondWidth) {
  BitErrorDistribution dist(4);
  dist.add(0xf0, 0x00);  // all flips outside the tracked width
  EXPECT_EQ(dist.rates(), std::vector<double>(4, 0.0));
}

TEST(BitDistributionTest, RejectsBadWidth) {
  EXPECT_THROW(BitErrorDistribution(0), std::invalid_argument);
  EXPECT_THROW(BitErrorDistribution(65), std::invalid_argument);
  EXPECT_NO_THROW(BitErrorDistribution(64));
}

}  // namespace

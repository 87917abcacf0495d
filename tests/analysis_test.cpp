// Analytic-model tests: closed-form fault probabilities and error
// statistics against Monte-Carlo measurements of the behavioral adder.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "core/analysis.h"
#include "core/isa_adder.h"

namespace {

using oisa::core::carryProbability;
using oisa::core::correctionProbability;
using oisa::core::ErrorCombination;
using oisa::core::expectedStructuralErrorApprox;
using oisa::core::faultProbability;
using oisa::core::IsaAdder;
using oisa::core::IsaConfig;
using oisa::core::makeIsa;
using oisa::core::meanFaultsPerAddition;
using oisa::core::OutputTriple;
using oisa::core::PathTrace;
using oisa::core::sampleStructuralErrors;
using oisa::core::structuralErrorRateApprox;

TEST(AnalysisTest, CarryProbabilityClosedForm) {
  EXPECT_DOUBLE_EQ(carryProbability(0), 0.0);
  EXPECT_DOUBLE_EQ(carryProbability(1), 0.25);
  EXPECT_DOUBLE_EQ(carryProbability(2), 0.375);
  EXPECT_NEAR(carryProbability(30), 0.5, 1e-8);
}

TEST(AnalysisTest, CarryProbabilityMatchesMonteCarlo) {
  std::mt19937_64 rng(3);
  const int n = 200000;
  std::vector<int> counts(9, 0);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t a = rng() & 0xffu;
    const std::uint64_t b = rng() & 0xffu;
    const std::uint64_t carries = (a + b) ^ a ^ b;  // carry into each bit
    for (int j = 1; j <= 8; ++j) {
      counts[j] += static_cast<int>((carries >> j) & 1u);
    }
  }
  for (int j = 1; j <= 8; ++j) {
    const double measured = static_cast<double>(counts[j]) / n;
    EXPECT_NEAR(measured, carryProbability(j), 0.005) << "bit " << j;
  }
}

/// Speculation faults per path over sampleStructuralErrors' draws:
/// `samples` operand pairs from std::mt19937_64(seed), a then b, carry-in
/// low, through addTraced.
std::vector<std::uint64_t> countPathFaults(const IsaConfig& cfg,
                                           std::uint64_t samples,
                                           std::uint64_t seed) {
  const IsaAdder isa(cfg);
  std::vector<std::uint64_t> pathFaults(
      static_cast<std::size_t>(cfg.pathCount()), 0);
  std::mt19937_64 rng(seed);
  std::vector<PathTrace> traces;
  for (std::uint64_t i = 0; i < samples; ++i) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    (void)isa.addTraced(a, b, false, traces);
    for (std::size_t p = 0; p < traces.size(); ++p) {
      if (traces[p].faultDirection != 0) ++pathFaults[p];
    }
  }
  return pathFaults;
}

TEST(AnalysisTest, FaultProbabilityMatchesMonteCarlo) {
  const std::uint64_t n = 100000;
  for (const IsaConfig& cfg :
       {makeIsa(8, 0, 0, 0), makeIsa(8, 2, 0, 0), makeIsa(16, 1, 0, 0),
        makeIsa(16, 7, 0, 0), makeIsa(4, 1, 0, 0, 16)}) {
    const std::vector<std::uint64_t> pathFaults = countPathFaults(cfg, n, 5);
    ASSERT_EQ(pathFaults.size(), static_cast<std::size_t>(cfg.pathCount()));
    for (int p = 0; p < cfg.pathCount(); ++p) {
      const double faultRate =
          static_cast<double>(pathFaults[static_cast<std::size_t>(p)]) /
          static_cast<double>(n);
      EXPECT_NEAR(faultRate, faultProbability(cfg, p), 0.01)
          << cfg.name() << " path " << p;
    }
  }
}

TEST(AnalysisTest, FaultProbabilityBasics) {
  const auto cfg = makeIsa(8, 0, 0, 0);
  EXPECT_DOUBLE_EQ(faultProbability(cfg, 0), 0.0);
  // S=0: fault iff a carry crosses the boundary.
  EXPECT_DOUBLE_EQ(faultProbability(cfg, 1), carryProbability(8));
  // Wider windows reduce fault probability by 2^-S.
  const auto spec2 = makeIsa(8, 2, 0, 0);
  EXPECT_DOUBLE_EQ(faultProbability(spec2, 1),
                   0.25 * carryProbability(6));
  EXPECT_THROW((void)faultProbability(cfg, 7), std::invalid_argument);
  EXPECT_DOUBLE_EQ(faultProbability(oisa::core::makeExact(32), 0), 0.0);
}

TEST(AnalysisTest, MeanFaultsIsLinearInPathProbabilities) {
  const auto cfg = makeIsa(8, 0, 0, 0);
  double sum = 0.0;
  for (int p = 1; p < cfg.pathCount(); ++p) sum += faultProbability(cfg, p);
  EXPECT_DOUBLE_EQ(meanFaultsPerAddition(cfg), sum);
  EXPECT_DOUBLE_EQ(meanFaultsPerAddition(oisa::core::makeExact(32)), 0.0);
}

TEST(AnalysisTest, MeanFaultsMatchesMonteCarlo) {
  const std::uint64_t n = 100000;
  for (const IsaConfig& cfg : oisa::core::paperDesigns()) {
    if (cfg.exact) continue;
    std::uint64_t faults = 0;
    for (const std::uint64_t f : countPathFaults(cfg, n, 7)) faults += f;
    const double meanFaults =
        static_cast<double>(faults) / static_cast<double>(n);
    EXPECT_NEAR(meanFaults, meanFaultsPerAddition(cfg), 0.02) << cfg.name();
  }
}

TEST(AnalysisTest, CorrectionProbabilityMatchesMonteCarlo) {
  // Fraction of faults repaired by correction: 1 - 2^-C.
  std::mt19937_64 rng(9);
  const auto cfg = makeIsa(8, 0, 2, 0);
  const IsaAdder isa(cfg);
  std::vector<PathTrace> traces;
  int faults = 0, corrected = 0;
  for (int i = 0; i < 200000; ++i) {
    (void)isa.addTraced(rng(), rng(), false, traces);
    for (const PathTrace& t : traces) {
      if (t.faultDirection != 0) {
        ++faults;
        corrected += t.corrected ? 1 : 0;
      }
    }
  }
  ASSERT_GT(faults, 1000);
  EXPECT_NEAR(static_cast<double>(corrected) / faults,
              correctionProbability(cfg), 0.02);
  EXPECT_DOUBLE_EQ(correctionProbability(makeIsa(8, 0, 0, 4)), 0.0);
  EXPECT_DOUBLE_EQ(correctionProbability(makeIsa(8, 0, 1, 0)), 0.5);
}

TEST(AnalysisTest, ErrorRateApproxTracksMonteCarlo) {
  const std::uint64_t n = 100000;
  for (const IsaConfig& cfg :
       {makeIsa(8, 0, 0, 0), makeIsa(8, 0, 1, 0), makeIsa(16, 2, 0, 0),
        makeIsa(16, 2, 1, 0)}) {
    const ErrorCombination errors = sampleStructuralErrors(cfg, n, 11);
    const double measured = errors.arithStruct().errorRate();
    const double predicted = structuralErrorRateApprox(cfg);
    // Cross-boundary correlation makes this approximate: allow 10% rel.
    EXPECT_NEAR(measured, predicted, 0.1 * predicted + 0.005) << cfg.name();
  }
}

TEST(AnalysisTest, ExpectedErrorApproxTracksMonteCarlo) {
  const std::uint64_t n = 200000;
  for (const IsaConfig& cfg :
       {makeIsa(8, 0, 0, 0), makeIsa(8, 0, 0, 4), makeIsa(16, 1, 0, 2)}) {
    const ErrorCombination errors = sampleStructuralErrors(cfg, n, 13);
    const double measured = errors.arithStruct().mean();
    const double predicted = expectedStructuralErrorApprox(cfg);
    EXPECT_LT(measured, 0.0);
    EXPECT_LT(predicted, 0.0);
    // Post-fault sum distributions are approximated as uniform: 25% rel.
    EXPECT_NEAR(measured, predicted, std::abs(predicted) * 0.25)
        << cfg.name();
  }
}

TEST(AnalysisTest, RelativeErrorsUseFullOutputValues) {
  // The paper's metric divides by the exact result over full output values
  // (sum plus carry-out). Over truncated 32-bit sums, a fault that changes
  // the carry-out would read an error near 2^32, and relative errors far
  // above 1.
  const auto cfg = makeIsa(8, 0, 0, 0);
  const std::uint64_t n = 20000;
  const ErrorCombination sampled = sampleStructuralErrors(cfg, n, 21);
  const IsaAdder isa(cfg);
  ErrorCombination expected;
  std::mt19937_64 rng(21);
  std::uint64_t overflows = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    const auto diamond = isa.exactAdd(a, b);
    const std::uint64_t gold = isa.add(a, b).value(cfg.width);
    overflows += diamond.carryOut ? 1 : 0;
    expected.add(OutputTriple{diamond.value(cfg.width), gold, gold});
  }
  ASSERT_GT(overflows, n / 4);
  ASSERT_GT(sampled.arithStruct().errorRate(), 0.0);
  EXPECT_EQ(sampled.relStruct().rms(), expected.relStruct().rms());
  EXPECT_EQ(sampled.arithStruct().rms(), expected.arithStruct().rms());
  EXPECT_LT(sampled.relStruct().maxAbs(), 1.0);
}

TEST(AnalysisTest, WiderWindowsMonotonicallyReduceFaultRate) {
  for (int s = 1; s <= 7; ++s) {
    EXPECT_LT(faultProbability(makeIsa(8, s, 0, 0), 1),
              faultProbability(makeIsa(8, s - 1, 0, 0), 1));
  }
}

}  // namespace

#include "core/analysis.h"

#include <cmath>
#include <random>
#include <stdexcept>

#include "core/isa_adder.h"

namespace oisa::core {

double carryProbability(int bitIndex) noexcept {
  if (bitIndex <= 0) return 0.0;
  return 0.5 * (1.0 - std::ldexp(1.0, -bitIndex));
}

namespace {

/// P(speculated carry of a path = 1): the S-bit window generates, which for
/// uniform bits is the S-bit carry-generation probability. Path 0 uses the
/// external carry-in (assumed 0), and S = 0 speculates constant 0.
double specOneProbability(const IsaConfig& cfg, int pathIndex) noexcept {
  if (pathIndex == 0 || cfg.spec == 0) return 0.0;
  return carryProbability(cfg.spec);
}

/// P(a carry reaches the window start of path `pathIndex` inside the
/// circuit). The carry is produced by block pathIndex-1 from its m = K - S
/// low bits plus its own speculated carry-in surviving an all-propagate
/// chain: P(G_m) + 2^-m * P(spec_{i-1} = 1). Exact under bit uniformity.
double carryAtWindowStart(const IsaConfig& cfg, int pathIndex) noexcept {
  const int m = cfg.block - cfg.spec;
  return carryProbability(m) +
         std::ldexp(1.0, -m) * specOneProbability(cfg, pathIndex - 1);
}

}  // namespace

double faultProbability(const IsaConfig& cfg, int pathIndex) {
  cfg.validate();
  if (cfg.exact) return 0.0;
  if (cfg.speculateHigh) {
    throw std::invalid_argument(
        "faultProbability: closed forms cover speculate-at-0 designs only");
  }
  if (pathIndex < 0 || pathIndex >= cfg.pathCount()) {
    throw std::invalid_argument("faultProbability: bad path index");
  }
  if (pathIndex == 0) return 0.0;  // true carry-in, never speculates
  // Fault: the S window bits all XOR-propagate (the only way the window
  // both fails to generate and passes the incoming carry) and a carry
  // reaches the window start.
  return std::ldexp(1.0, -cfg.spec) * carryAtWindowStart(cfg, pathIndex);
}

double meanFaultsPerAddition(const IsaConfig& cfg) {
  cfg.validate();
  if (cfg.exact) return 0.0;
  double sum = 0.0;
  for (int i = 1; i < cfg.pathCount(); ++i) {
    sum += faultProbability(cfg, i);
  }
  return sum;
}

double correctionProbability(const IsaConfig& cfg) noexcept {
  if (cfg.exact || cfg.correction == 0) return 0.0;
  return 1.0 - std::ldexp(1.0, -cfg.correction);
}

double structuralErrorRateApprox(const IsaConfig& cfg) {
  cfg.validate();
  if (cfg.exact) return 0.0;
  const double uncorrectable = 1.0 - correctionProbability(cfg);
  double noError = 1.0;
  for (int i = 1; i < cfg.pathCount(); ++i) {
    noError *= 1.0 - faultProbability(cfg, i) * uncorrectable;
  }
  return 1.0 - noError;
}

double expectedStructuralErrorApprox(const IsaConfig& cfg) {
  cfg.validate();
  if (cfg.exact) return 0.0;
  const double uncorrectable = 1.0 - correctionProbability(cfg);
  const int k = cfg.block;
  const int r = cfg.reduction;
  const int s = cfg.spec;

  // Expected balancing gain, conditioned on the fault:
  //  * S = 0: the preceding block overflowed, so its residual sum follows a
  //    decreasing-triangular law with mean 2^K/3; forcing the top R bits
  //    gains E[delta] = (2/3) 2^K - 2^(K-R)/2.
  //  * S > 0: the carry crossed the all-propagate window, so the window's
  //    sum bits (the top S of the preceding sum) are all 0 and are fully
  //    gained; the bit right below the window carried out (P(bit=0) =
  //    3/4); deeper balanced bits are ~uniform.
  double balancingGain = 0.0;
  if (r > 0) {
    if (s == 0) {
      balancingGain = (2.0 / 3.0) * std::ldexp(1.0, k) -
                      0.5 * std::ldexp(1.0, k - r);
    } else {
      for (int j = k - r; j < k; ++j) {
        double pZero = 0.5;
        if (j >= k - s) pZero = 1.0;
        else if (j == k - s - 1) pZero = 0.75;
        balancingGain += pZero * std::ldexp(1.0, j);
      }
    }
  }

  double expected = 0.0;
  for (int i = 1; i < cfg.pathCount(); ++i) {
    const double blockWeight = std::ldexp(1.0, k);
    const double prevWeight = std::ldexp(1.0, (i - 1) * k);
    expected += faultProbability(cfg, i) * uncorrectable *
                (-blockWeight + balancingGain) * prevWeight;
  }
  return expected;
}

ErrorCombination sampleStructuralErrors(const IsaConfig& cfg,
                                        std::uint64_t samples,
                                        std::uint64_t seed) {
  cfg.validate();
  const IsaAdder isa(cfg);
  ErrorCombination errors;
  std::mt19937_64 rng(seed);
  for (std::uint64_t i = 0; i < samples; ++i) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    const std::uint64_t gold = isa.add(a, b, false).value(cfg.width);
    const std::uint64_t diamond = isa.exactAdd(a, b, false).value(cfg.width);
    errors.add(OutputTriple{diamond, gold, gold});
  }
  return errors;
}

}  // namespace oisa::core

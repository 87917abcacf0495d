#include "core/isa_adder.h"

#include <bit>
#include <stdexcept>

namespace oisa::core {

namespace {
/// Low-n-bit mask, safe for n in [0, 64].
[[nodiscard]] constexpr std::uint64_t maskBits(int n) noexcept {
  if (n <= 0) return 0;
  if (n >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << n) - 1;
}
}  // namespace

IsaAdder::IsaAdder(const IsaConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  mask_ = maskBits(cfg_.width);
  blockMask_ = cfg_.exact ? mask_ : maskBits(cfg_.block);
}

IsaSum IsaAdder::add(std::uint64_t a, std::uint64_t b, bool carryIn) const {
  return addPaths(a, b, carryIn, nullptr);
}

IsaSum IsaAdder::addTraced(std::uint64_t a, std::uint64_t b, bool carryIn,
                           std::vector<PathTrace>& traces) const {
  traces.assign(static_cast<std::size_t>(cfg_.pathCount()), PathTrace{});
  return addPaths(a, b, carryIn, traces.data());
}

IsaSum IsaAdder::addPaths(std::uint64_t a, std::uint64_t b, bool carryIn,
                          PathTrace* traces) const {
  a &= mask_;
  b &= mask_;
  if (cfg_.exact) return exactAdd(a, b, carryIn);
  const int k = cfg_.block;
  const int paths = cfg_.pathCount();
  const int s = cfg_.spec;
  const int c = cfg_.correction;
  const int r = cfg_.reduction;
  const std::uint64_t topRMask = maskBits(r) << (k - r);

  // Path i's local sum sits at bit offset i * k of `sums`, its carry-out
  // and speculated carry at bit i of `couts` and `specs`. Compensation
  // never carries or borrows out of a path's block, so the paths share
  // one word without interfering.
  std::uint64_t sums = 0;
  std::uint64_t couts = 0;
  std::uint64_t specs = 0;

  // Stage 1: concurrent speculative paths (SPEC + ADD).
  for (int i = 0; i < paths; ++i) {
    const int base = i * k;
    const std::uint64_t ai = (a >> base) & blockMask_;
    const std::uint64_t bi = (b >> base) & blockMask_;
    bool spec = false;
    if (i == 0) {
      spec = carryIn;  // the first path uses the exact adder carry-in
    } else if (s > 0) {
      // Carry look-ahead over the S bits preceding this path, with the
      // window carry-in speculated at 0 (or 1 for the dual polarity): the
      // speculated carry is the carry-out of the S-bit window addition.
      const std::uint64_t aw = (a >> (base - s)) & maskBits(s);
      const std::uint64_t bw = (b >> (base - s)) & maskBits(s);
      const std::uint64_t win = aw + bw + (cfg_.speculateHigh ? 1u : 0u);
      spec = ((win >> s) & 1u) != 0;
    } else {
      spec = cfg_.speculateHigh;  // S == 0: constant speculation
    }
    const std::uint64_t raw = ai + bi + (spec ? 1u : 0u);
    sums |= (raw & blockMask_) << base;
    couts |= ((raw >> k) & 1u) << i;
    specs |= std::uint64_t{spec} << i;
    if (traces != nullptr) {
      traces[i].specCarry = spec;
      traces[i].rawSum = raw & blockMask_;
    }
  }

  // Stage 2: COMP blocks. Each path compares its speculated carry against
  // the carry-out of the preceding sub-adder, then corrects its own LSBs or
  // balances the preceding sum's MSBs.
  for (int i = 1; i < paths; ++i) {
    const int base = i * k;
    const int prevBase = base - k;
    const bool cPrev = ((couts >> (i - 1)) & 1u) != 0;
    const bool spec = ((specs >> i) & 1u) != 0;
    const int err = static_cast<int>(cPrev) - static_cast<int>(spec);
    if (traces != nullptr) {
      traces[i].trueCarryIn = cPrev;
      traces[i].faultDirection = err;
    }
    if (err == 0) continue;
    const std::uint64_t lowC = (sums >> base) & maskBits(c);
    const std::uint64_t prev = (sums >> prevBase) & blockMask_;
    const std::int64_t blockWeight = std::int64_t{1} << base;
    const std::int64_t prevWeight = std::int64_t{1} << prevBase;
    bool corrected = false;
    bool balanced = false;
    std::int64_t contribution = 0;
    if (err > 0) {
      // Missed carry: the local sum is short of +1.
      if (c > 0 && lowC != maskBits(c)) {
        // Stays within the C-bit group by the guard above.
        sums += std::uint64_t{1} << base;
        corrected = true;
      } else if (r > 0) {
        // Preceding sum is 2^k too low (its carry was dropped): saturating
        // its top R bits towards 1 shrinks the deficit below 2^(k-r).
        const auto delta = static_cast<std::int64_t>((prev | topRMask) - prev);
        contribution = -blockWeight + delta * prevWeight;
        sums |= topRMask << prevBase;
        balanced = true;
      } else {
        contribution = -blockWeight;
      }
    } else {
      // Spurious carry: the local sum is +1 too high.
      if (c > 0 && lowC != 0) {
        sums -= std::uint64_t{1} << base;
        corrected = true;
      } else if (r > 0) {
        const auto delta = static_cast<std::int64_t>(prev & topRMask);
        contribution = blockWeight - delta * prevWeight;
        sums &= ~(topRMask << prevBase);
        balanced = true;
      } else {
        contribution = blockWeight;
      }
    }
    if (traces != nullptr) {
      traces[i].corrected = corrected;
      traces[i].balanced = balanced;
      traces[i].errorContribution = contribution;
    }
  }

  IsaSum result;
  result.sum = sums & mask_;
  result.carryOut = ((couts >> (paths - 1)) & 1u) != 0;
  return result;
}

int equivalentBitPosition(const PathTrace& trace) noexcept {
  if (trace.errorContribution == 0) return -1;
  // Magnitude in unsigned space: |INT64_MIN| does not fit an int64.
  const auto bits = static_cast<std::uint64_t>(trace.errorContribution);
  const std::uint64_t magnitude =
      trace.errorContribution < 0 ? std::uint64_t{0} - bits : bits;
  return 63 - std::countl_zero(magnitude);
}

std::int64_t IsaAdder::structuralError(std::uint64_t a, std::uint64_t b,
                                       bool carryIn) const {
  const IsaSum gold = add(a, b, carryIn);
  const IsaSum diamond = exactAdd(a, b, carryIn);
  // Subtract in unsigned space (wraps, then two's-complement cast): composed
  // values may use bit 63 at widths 63-64, where int64 casts would overflow.
  return static_cast<std::int64_t>(gold.value(cfg_.width) -
                                   diamond.value(cfg_.width));
}

}  // namespace oisa::core

// Behavioral ISA model tests: configuration validation, exact reference,
// the paper's compensation arithmetic (Fig. 2), structural-error
// properties of the paper's design points, and a SHA-256 digest fence
// over add()/addTraced() outputs on a fixed random sweep of configs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <random>
#include <string>

#include "core/analysis.h"
#include "core/isa_adder.h"
#include "core/isa_config.h"
#include "sha256.h"

namespace {

using oisa::core::IsaAdder;
using oisa::core::IsaConfig;
using oisa::core::IsaSum;
using oisa::core::makeExact;
using oisa::core::makeIsa;
using oisa::core::PathTrace;

TEST(IsaConfigTest, NamesMatchPaperNotation) {
  EXPECT_EQ(makeIsa(8, 0, 0, 4).name(), "(8,0,0,4)");
  EXPECT_EQ(makeIsa(16, 7, 0, 8).name(), "(16,7,0,8)");
  EXPECT_EQ(makeExact().name(), "exact");
}

TEST(IsaConfigTest, ValidationRejectsBadShapes) {
  IsaConfig cfg;
  cfg.width = 32;
  cfg.block = 7;  // does not divide 32
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.block = 8;
  cfg.spec = 9;  // larger than block
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.spec = 0;
  cfg.correction = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.correction = 0;
  cfg.reduction = 9;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.reduction = 0;
  EXPECT_NO_THROW(cfg.validate());
  cfg.width = 65;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(IsaConfigTest, ValidationRejectsShapesWithUndefinedArithmetic) {
  // block 64 shifts by 64; block 1 at width 64 negates 2^63. Both are
  // rejected by name, and their neighbours stay valid.
  const auto message = [](int block, int width) {
    try {
      (void)makeIsa(block, 0, 0, 0, width);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(message(64, 64).find("block=64"), std::string::npos);
  EXPECT_NE(message(1, 64).find("block=1 at width=64"), std::string::npos);
  EXPECT_NO_THROW((void)makeIsa(32, 0, 0, 0, 64));
  EXPECT_NO_THROW((void)makeIsa(2, 1, 1, 1, 64));
  EXPECT_NO_THROW((void)makeIsa(1, 1, 1, 1, 63));
  EXPECT_NO_THROW((void)makeExact(64));
}

TEST(IsaConfigTest, PaperDesignListHasTwelveEntries) {
  const auto& designs = oisa::core::paperDesigns();
  ASSERT_EQ(designs.size(), 12u);
  EXPECT_EQ(designs.front().name(), "(8,0,0,0)");
  EXPECT_EQ(designs.back().name(), "exact");
  for (const IsaConfig& cfg : designs) {
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_EQ(cfg.width, 32);
  }
}

TEST(IsaAdderTest, ExactAdderMatchesArithmetic) {
  const IsaAdder adder(makeExact(32));
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng() & 0xffffffffull;
    const std::uint64_t b = rng() & 0xffffffffull;
    const bool cin = (rng() & 1u) != 0;
    const IsaSum r = adder.exactAdd(a, b, cin);
    const std::uint64_t full = a + b + (cin ? 1 : 0);
    EXPECT_EQ(r.sum, full & 0xffffffffull);
    EXPECT_EQ(r.carryOut, (full >> 32) != 0);
  }
}

TEST(IsaAdderTest, ExactAdderWidth64CarryOut) {
  const IsaAdder adder(makeExact(64));
  const std::uint64_t all = ~std::uint64_t{0};
  const IsaSum r = adder.exactAdd(all, 1, false);
  EXPECT_EQ(r.sum, 0u);
  EXPECT_TRUE(r.carryOut);
  const IsaSum r2 = adder.exactAdd(all, 0, true);
  EXPECT_EQ(r2.sum, 0u);
  EXPECT_TRUE(r2.carryOut);
  const IsaSum r3 = adder.exactAdd(all - 1, 1, false);
  EXPECT_EQ(r3.sum, all);
  EXPECT_FALSE(r3.carryOut);
}

TEST(IsaAdderTest, ComposedValueIncludesCarryOut) {
  const IsaAdder adder(makeExact(32));
  const IsaSum r = adder.exactAdd(0xffffffffull, 2, false);
  EXPECT_EQ(r.sum, 1u);
  EXPECT_TRUE(r.carryOut);
  EXPECT_EQ(r.value(32), 0x100000001ull);
  // Width 64: the carry-out cannot be composed and is dropped.
  const IsaAdder wide(makeExact(64));
  const IsaSum w = wide.exactAdd(~std::uint64_t{0}, 2, false);
  EXPECT_TRUE(w.carryOut);
  EXPECT_EQ(w.value(64), w.sum);
}

TEST(IsaAdderTest, SinglePathConfigIsExact) {
  // block == width means one path fed by the true carry-in: exact.
  const IsaAdder isa(makeIsa(32, 0, 0, 0, 32));
  std::mt19937_64 rng(11);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng() & 0xffffffffull;
    const std::uint64_t b = rng() & 0xffffffffull;
    EXPECT_EQ(isa.structuralError(a, b), 0);
  }
}

TEST(IsaAdderTest, TruncatedCarryDropsBlockCarry) {
  // (8,0,0,0) on 16 bits: carry from the low block is simply lost.
  const IsaAdder isa(makeIsa(8, 0, 0, 0, 16));
  const IsaSum gold = isa.add(0x00ff, 0x0001);
  EXPECT_EQ(gold.sum, 0x0000u);
  EXPECT_EQ(isa.structuralError(0x00ff, 0x0001), -0x100);
}

TEST(IsaAdderTest, OneBitCorrectionRepairsMissedCarry) {
  // Same stimulus with 1-bit correction: local LSB is 0, so +1 fits.
  const IsaAdder isa(makeIsa(8, 0, 1, 0, 16));
  const IsaSum gold = isa.add(0x00ff, 0x0001);
  EXPECT_EQ(gold.sum, 0x0100u);
  EXPECT_EQ(isa.structuralError(0x00ff, 0x0001), 0);
}

TEST(IsaAdderTest, BalancingKicksInWhenCorrectionImpossible) {
  // Missed carry with local LSB already 1: cannot increment 1-bit group;
  // the 4-bit reduction saturates the preceding sum's MSBs instead.
  const IsaAdder isa(makeIsa(8, 0, 1, 4, 16));
  // low block: 0xff + 0x01 -> sum 0x00, carry out 1 (missed).
  // high block: 0x00 + 0x01 -> local sum 0x01, LSB = 1 (uncorrectable).
  const IsaSum gold = isa.add(0x00ff, 0x0101);
  EXPECT_EQ(gold.sum, 0x01f0u);
  // Exact result is 0x0200: balancing leaves a small negative error.
  EXPECT_EQ(isa.structuralError(0x00ff, 0x0101), 0x1f0 - 0x200);
}

TEST(IsaAdderTest, NoCompensationKeepsRawError) {
  // Same stimulus without any compensation: the dropped block carry stays
  // dropped (gold = 0x0100 vs exact 0x0200).
  const IsaAdder isa(makeIsa(8, 0, 0, 0, 16));
  EXPECT_EQ(isa.structuralError(0x00ff, 0x0101), 0x100 - 0x200);
}

TEST(IsaAdderTest, SpeculationWindowCatchesGeneratedCarry) {
  // (8,2,0,0) on 16 bits: a generate in the top-2 window of the low block
  // is visible to the speculator, so no fault occurs.
  const IsaAdder isa(makeIsa(8, 2, 0, 0, 16));
  // a=0xc0, b=0x40: bits 6 of both set -> window generates; carry-out real.
  EXPECT_EQ(isa.structuralError(0x00c0, 0x0040), 0);
  // Propagate chain through the whole window with the generate below it:
  // window sees propagate only, speculates 0, real carry arrives: fault.
  // a=0x3f + b=0xc1 = 0x100: bits 6..7 are propagate (a=0,b=1 / a=0,b=1).
  EXPECT_EQ(isa.structuralError(0x003f, 0x00c1, false), -0x100);
}

TEST(IsaAdderTest, Figure2ScenarioCorrectionAndBalancing) {
  // The paper's Fig. 2 arithmetic on a (4,2,1,1) 12-bit instance:
  // path 0 is exact; path 1 has a correctable missed carry; path 2 has an
  // uncorrectable one, so path 1's MSB is forced to 1.
  const IsaAdder isa(makeIsa(4, 2, 1, 1, 12));
  const std::uint64_t a = 0b0001'1110'1111;
  const std::uint64_t b = 0b0000'0010'0001;
  std::vector<PathTrace> traces;
  const IsaSum gold = isa.addTraced(a, b, false, traces);

  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].faultDirection, 0);
  EXPECT_EQ(traces[1].faultDirection, +1);
  EXPECT_TRUE(traces[1].corrected);
  EXPECT_FALSE(traces[1].balanced);
  EXPECT_EQ(traces[2].faultDirection, +1);
  EXPECT_FALSE(traces[2].corrected);
  EXPECT_TRUE(traces[2].balanced);

  EXPECT_EQ(gold.sum, 0b0001'1001'0000u);
  const IsaSum exact = isa.exactAdd(a, b, false);
  EXPECT_EQ(exact.sum, 0x210u);
}

TEST(IsaAdderTest, SpuriousCarryNeverOccursWithGenerateSpeculation) {
  // The SPEC block speculates the window's generate signal with carry-in 0;
  // if the window generates, the real block carry-out is also 1, so the
  // "spurious carry" direction is structurally impossible (the COMP
  // hardware still implements it; see compensation tests for injection).
  std::mt19937_64 rng(23);
  for (const IsaConfig& cfg : oisa::core::paperDesigns()) {
    if (cfg.exact) continue;
    const IsaAdder isa(cfg);
    std::vector<PathTrace> traces;
    for (int i = 0; i < 3000; ++i) {
      (void)isa.addTraced(rng(), rng(), false, traces);
      for (const PathTrace& t : traces) {
        EXPECT_GE(t.faultDirection, 0) << cfg.name();
      }
    }
  }
}

TEST(IsaAdderTest, StructuralErrorOfBalancedTruncationIsBoundedNegative) {
  // (8,0,0,4) on 32 bits: every fault is a missed carry; balancing can only
  // shrink the deficit, never overshoot. Worst case is one full dropped
  // carry per boundary: -(2^24 + 2^16 + 2^8) > -2^25.
  const IsaAdder isa(makeIsa(8, 0, 0, 4, 32));
  std::mt19937_64 rng(31);
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t e = isa.structuralError(rng(), rng());
    EXPECT_LE(e, 0);
    EXPECT_GT(e, -(std::int64_t{1} << 25));
  }
}

TEST(IsaAdderTest, MoreCompensationNeverIncreasesRmsError) {
  // Sanity ordering on mean |error| across the (8,0,0,x) family: more
  // reduction bits give a strictly smaller mean absolute structural error.
  std::mt19937_64 rng(41);
  std::vector<std::uint64_t> as, bs;
  for (int i = 0; i < 20000; ++i) {
    as.push_back(rng());
    bs.push_back(rng());
  }
  auto meanAbs = [&](const IsaConfig& cfg) {
    const IsaAdder isa(cfg);
    double sum = 0.0;
    for (std::size_t i = 0; i < as.size(); ++i) {
      sum += static_cast<double>(std::abs(isa.structuralError(as[i], bs[i])));
    }
    return sum / static_cast<double>(as.size());
  };
  const double e0 = meanAbs(makeIsa(8, 0, 0, 0));
  const double e2 = meanAbs(makeIsa(8, 0, 0, 2));
  const double e4 = meanAbs(makeIsa(8, 0, 0, 4));
  EXPECT_GT(e0, e2);
  EXPECT_GT(e2, e4);
}

TEST(IsaAdderTest, WiderSpeculationWindowReducesErrorRate) {
  std::mt19937_64 rng(43);
  std::vector<std::uint64_t> as, bs;
  for (int i = 0; i < 20000; ++i) {
    as.push_back(rng());
    bs.push_back(rng());
  }
  auto errorRate = [&](const IsaConfig& cfg) {
    const IsaAdder isa(cfg);
    int errors = 0;
    for (std::size_t i = 0; i < as.size(); ++i) {
      errors += isa.structuralError(as[i], bs[i]) != 0 ? 1 : 0;
    }
    return static_cast<double>(errors) / static_cast<double>(as.size());
  };
  const double s0 = errorRate(makeIsa(16, 0, 0, 0));
  const double s2 = errorRate(makeIsa(16, 2, 0, 0));
  const double s7 = errorRate(makeIsa(16, 7, 0, 0));
  EXPECT_GT(s0, s2);
  EXPECT_GT(s2, s7);
}

TEST(IsaAdderTest, SpeculateHighNamesCarrySuffix) {
  IsaConfig cfg = makeIsa(8, 2, 1, 4);
  cfg.speculateHigh = true;
  EXPECT_EQ(cfg.name(), "(8,2,1,4)+");
}

TEST(IsaAdderTest, SpeculateHighProducesSpuriousCarries) {
  // The dual speculation polarity makes the spurious-carry direction
  // reachable: with constant-1 speculation, 0 + 0 has no real carries but
  // every path assumes one.
  IsaConfig cfg = makeIsa(8, 0, 0, 0, 32);
  cfg.speculateHigh = true;
  const IsaAdder isa(cfg);
  std::vector<PathTrace> traces;
  const IsaSum r = isa.addTraced(0, 0, false, traces);
  for (std::size_t i = 1; i < traces.size(); ++i) {
    EXPECT_EQ(traces[i].faultDirection, -1) << "path " << i;
  }
  // Each spurious +1 lands at the path base: error is positive.
  EXPECT_GT(r.sum, 0u);
  EXPECT_GT(isa.structuralError(0, 0), 0);
}

TEST(IsaAdderTest, SpeculateHighDecrementCorrectionRepairs) {
  // 1-bit correction: the spurious +1 is removed when the local LSB is 1.
  IsaConfig cfg = makeIsa(8, 0, 1, 0, 16);
  cfg.speculateHigh = true;
  const IsaAdder isa(cfg);
  // High block 0x01 + 0x00 + spurious 1 = 0x02, LSB 0 -> decrement not
  // possible within 1 bit; with local sum LSB 1 it is.
  std::vector<PathTrace> traces;
  (void)isa.addTraced(0x0000, 0x0100, false, traces);  // high sum = 1+1=2
  EXPECT_EQ(traces[1].faultDirection, -1);
  EXPECT_FALSE(traces[1].corrected);  // 2's LSB is 0: borrow would escape
  (void)isa.addTraced(0x0000, 0x0000, false, traces);  // high sum = 0+1=1
  EXPECT_EQ(traces[1].faultDirection, -1);
  EXPECT_TRUE(traces[1].corrected);
  EXPECT_EQ(isa.structuralError(0x0000, 0x0000), 0);
}

TEST(IsaAdderTest, SpeculateHighBalancingForcesDown) {
  // No correction, 4-bit reduction: a spurious carry forces the preceding
  // sum's top bits to 0, shrinking the positive error.
  IsaConfig cfg = makeIsa(8, 0, 0, 4, 16);
  cfg.speculateHigh = true;
  const IsaAdder isa(cfg);
  std::vector<PathTrace> traces;
  // a+b = 0x00f0: low block sum 0xf0, no real carry; spec assumes one.
  const IsaSum r = isa.addTraced(0x00f0, 0x0000, false, traces);
  EXPECT_EQ(traces[1].faultDirection, -1);
  EXPECT_TRUE(traces[1].balanced);
  // Low sum 0xf0 forced down to 0x00; high block keeps the spurious +1.
  EXPECT_EQ(r.sum, 0x0100u);
  EXPECT_EQ(isa.structuralError(0x00f0, 0x0000), 0x0100 - 0x00f0);
}

TEST(IsaAdderTest, SpeculateHighWindowCatchesRealCarry) {
  // When a real carry exists, speculate-high with a window is correct as
  // long as the window does not kill it.
  IsaConfig cfg = makeIsa(8, 2, 0, 0, 16);
  cfg.speculateHigh = true;
  const IsaAdder isa(cfg);
  EXPECT_EQ(isa.structuralError(0x00c0, 0x0040), 0);  // window generates
  EXPECT_EQ(isa.structuralError(0x003f, 0x00c1), 0);  // window propagates
  // Window kills (both top-2 bit pairs 0) while a real carry arrives:
  // impossible — a kill absorbs the carry. Spurious instead: kill + spec.
  EXPECT_EQ(isa.structuralError(0x0000, 0x0000), 0);  // kill, no carry: ok
}

TEST(IsaAdderTest, AnalysisRejectsSpeculateHigh) {
  IsaConfig cfg = makeIsa(8, 2, 0, 0);
  cfg.speculateHigh = true;
  EXPECT_THROW((void)oisa::core::faultProbability(cfg, 1),
               std::invalid_argument);
}

// Parameterized sweep: for every paper design, the traced and untraced
// entry points agree and carry-out matches the top path.
class PaperDesignTest : public ::testing::TestWithParam<IsaConfig> {};

TEST_P(PaperDesignTest, TracedAndPlainAdditionsAgree) {
  const IsaAdder isa(GetParam());
  std::mt19937_64 rng(59);
  std::vector<PathTrace> traces;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    const IsaSum plain = isa.add(a, b);
    const IsaSum traced = isa.addTraced(a, b, false, traces);
    EXPECT_EQ(plain.sum, traced.sum);
    EXPECT_EQ(plain.carryOut, traced.carryOut);
    EXPECT_EQ(traces.size(),
              static_cast<std::size_t>(GetParam().pathCount()));
  }
}

TEST_P(PaperDesignTest, CarryInPropagatesThroughFirstPath) {
  const IsaAdder isa(GetParam());
  // 0 + 0 + cin: only the first path sees the carry-in.
  const IsaSum withCin = isa.add(0, 0, true);
  EXPECT_EQ(withCin.sum, 1u);
  const IsaSum withoutCin = isa.add(0, 0, false);
  EXPECT_EQ(withoutCin.sum, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPaperDesigns, PaperDesignTest,
                         ::testing::ValuesIn(oisa::core::paperDesigns()),
                         [](const auto& info) {
                           std::string n = info.param.name();
                           std::string out;
                           for (char ch : n) {
                             if (std::isalnum(static_cast<unsigned char>(ch))) {
                               out += ch;
                             } else if (ch == ',') {
                               out += '_';
                             }
                           }
                           return out;
                         });

// ---------------------------------------------------------------------------
// Digest fence: add() and addTraced() outputs, every PathTrace field
// included, over a fixed random sweep of configs at every width 1-64.
// ---------------------------------------------------------------------------

// Recorded with the vector-based addTraced() that add() used to wrap.
constexpr const char* kGoldenAdderSweep =
    "1453f3275e11b3f4b3f4818e96e81ed39a546525aa6bd607fae8fb24627e0341";

/// A uniformly drawn divisor of `width`, from raw engine output (the
/// standard distributions are implementation-defined).
int randomDivisor(std::mt19937_64& rng, int width) {
  std::vector<int> divisors;
  for (int d = 1; d <= width; ++d) {
    if (width % d == 0) divisors.push_back(d);
  }
  return divisors[rng() % divisors.size()];
}

/// Per width: the exact adder, a random quadruple, an S = 0 speculate-high
/// quadruple, a single-path (block == width) quadruple and one with
/// C + R > K. Shapes whose arithmetic shifts by 64 or negates 2^63
/// (block 64, and block 1 at width 64) are left out: IsaConfig::validate
/// rejects them.
std::vector<IsaConfig> fenceConfigs(std::mt19937_64& rng) {
  std::vector<IsaConfig> configs;
  const auto upTo = [&](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n + 1));
  };
  for (int width = 1; width <= 64; ++width) {
    configs.push_back(makeExact(width));
    const auto quad = [&](int block) {
      // One draw per statement: argument evaluation order is unspecified.
      IsaConfig cfg = makeIsa(block, 0, 0, 0, width);
      cfg.spec = upTo(block);
      cfg.correction = upTo(block);
      cfg.reduction = upTo(block);
      cfg.speculateHigh = (rng() & 1u) != 0;
      return cfg;
    };
    const auto usable = [&](int block) {
      return block < 64 && !(width == 64 && block == 1);
    };
    if (const int block = randomDivisor(rng, width); usable(block)) {
      configs.push_back(quad(block));
    }
    if (const int block = randomDivisor(rng, width); usable(block)) {
      IsaConfig cfg = quad(block);
      cfg.spec = 0;
      cfg.speculateHigh = true;
      configs.push_back(cfg);
    }
    if (usable(width)) configs.push_back(quad(width));
    if (const int block = randomDivisor(rng, width); usable(block)) {
      IsaConfig cfg = quad(block);
      cfg.correction = block - upTo(block / 2);
      cfg.reduction = std::min(block, block - cfg.correction + 1 + upTo(2));
      configs.push_back(cfg);
    }
  }
  return configs;
}

TEST(IsaAdderDigestTest, AddAndAddTracedMatchGolden) {
  std::mt19937_64 rng(1317);
  const std::vector<IsaConfig> configs = fenceConfigs(rng);
  std::string text;
  std::vector<PathTrace> traces;
  char buf[160];
  const auto append = [&](int n) {
    text.append(buf, static_cast<std::size_t>(n));
  };
  const std::uint64_t ones = ~std::uint64_t{0};
  for (const IsaConfig& cfg : configs) {
    const IsaAdder isa(cfg);
    append(std::snprintf(buf, sizeof buf, "%s w%d\n", cfg.name().c_str(),
                         cfg.width));
    for (int i = 0; i < 40; ++i) {
      // Operand edge cases first, then raw draws (bits above the width
      // are ignored by the adder).
      const std::uint64_t a = i < 4 ? ((i & 1) != 0 ? ones : 0) : rng();
      const std::uint64_t b = i < 4 ? ((i & 2) != 0 ? ones : 0) : rng();
      for (const bool cin : {false, true}) {
        const IsaSum plain = isa.add(a, b, cin);
        const IsaSum traced = isa.addTraced(a, b, cin, traces);
        append(std::snprintf(buf, sizeof buf,
                             "%016" PRIx64 " %016" PRIx64 " %d: %" PRIx64
                             " %d %" PRIx64 " %d |",
                             a, b, cin ? 1 : 0, plain.sum,
                             plain.carryOut ? 1 : 0, traced.sum,
                             traced.carryOut ? 1 : 0));
        for (const PathTrace& t : traces) {
          append(std::snprintf(buf, sizeof buf,
                               " %d%d%+d%d%d:%" PRIx64 ":%" PRId64,
                               t.specCarry ? 1 : 0, t.trueCarryIn ? 1 : 0,
                               t.faultDirection, t.corrected ? 1 : 0,
                               t.balanced ? 1 : 0, t.rawSum,
                               t.errorContribution));
        }
        text += '\n';
      }
    }
  }
  EXPECT_GT(configs.size(), 250u);
  EXPECT_EQ(oisa::testing::sha256Hex(text), kGoldenAdderSweep)
      << "first lines of the canonical text:\n"
      << text.substr(0, 2000);
}

}  // namespace

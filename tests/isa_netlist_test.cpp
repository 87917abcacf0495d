// Gate-level ISA generator tests: SPEC/COMP blocks in isolation (including
// failure injection of the spurious-carry path that the full adder can
// never sensitize), and the headline invariant — generated netlists are
// bit-identical to the behavioral model for every paper design.
#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "circuits/compensation.h"
#include "circuits/isa_netlist.h"
#include "circuits/speculator.h"
#include "core/isa_adder.h"
#include "reference/evaluator.h"

namespace {

using oisa::circuits::AdderTopology;
using oisa::circuits::buildCompensation;
using oisa::circuits::buildIsaNetlist;
using oisa::circuits::buildSpeculator;
using oisa::circuits::CompensationPorts;
using oisa::circuits::IsaBuildOptions;
using oisa::circuits::packOperands;
using oisa::circuits::unpackCarryOut;
using oisa::circuits::unpackSum;
using oisa::core::IsaAdder;
using oisa::core::IsaConfig;
using oisa::netlist::Evaluator;
using oisa::netlist::Netlist;
using oisa::netlist::NetId;

TEST(SpeculatorTest, MatchesWindowCarryExhaustively) {
  for (int s = 1; s <= 7; ++s) {
    Netlist nl;
    std::vector<NetId> a, b;
    for (int i = 0; i < s; ++i) a.push_back(nl.input("a" + std::to_string(i)));
    for (int i = 0; i < s; ++i) b.push_back(nl.input("b" + std::to_string(i)));
    nl.output("spec", buildSpeculator(nl, a, b));
    const Evaluator eval(nl);
    const std::uint64_t limit = std::uint64_t{1} << s;
    for (std::uint64_t av = 0; av < limit; ++av) {
      for (std::uint64_t bv = 0; bv < limit; ++bv) {
        std::vector<std::uint8_t> in;
        for (int i = 0; i < s; ++i) {
          in.push_back(static_cast<std::uint8_t>((av >> i) & 1u));
        }
        for (int i = 0; i < s; ++i) {
          in.push_back(static_cast<std::uint8_t>((bv >> i) & 1u));
        }
        const bool expected = ((av + bv) >> s) & 1u;
        EXPECT_EQ(eval.evaluateOutputs(in)[0] != 0, expected)
            << "s=" << s << " a=" << av << " b=" << bv;
      }
    }
  }
}

// COMP block in isolation, spec/coutPrev freely injectable — this is the
// only way to exercise the spurious-carry (decrement) branch, which the
// generate-based speculator can never produce in a full ISA.
struct CompFixture {
  Netlist nl{"comp"};
  int k;
  int r;
  int c;
  std::vector<NetId> localSum, prevTop;
  NetId spec, coutPrev;

  CompFixture(int kBits, int cBits, int rBits)
      : k(kBits), r(rBits), c(cBits) {
    spec = nl.input("spec");
    coutPrev = nl.input("coutPrev");
    for (int i = 0; i < k; ++i) {
      localSum.push_back(nl.input("sum" + std::to_string(i)));
    }
    for (int i = 0; i < r; ++i) {
      prevTop.push_back(nl.input("prev" + std::to_string(i)));
    }
    const CompensationPorts ports =
        buildCompensation(nl, spec, coutPrev, localSum, prevTop, c);
    for (int i = 0; i < k; ++i) {
      nl.output("cs" + std::to_string(i),
                ports.correctedSum[static_cast<std::size_t>(i)]);
    }
    for (int i = 0; i < r; ++i) {
      nl.output("bp" + std::to_string(i),
                ports.balancedPrevTop[static_cast<std::size_t>(i)]);
    }
    nl.output("fault", ports.fault);
    nl.output("corrected", ports.corrected);
    nl.validate();
  }

  struct Result {
    std::uint64_t correctedSum;
    std::uint64_t balancedPrevTop;
    bool fault;
    bool corrected;
  };

  Result run(bool specV, bool coutV, std::uint64_t sum,
             std::uint64_t prev) const {
    const Evaluator eval(nl);
    std::vector<std::uint8_t> in{specV ? std::uint8_t{1} : std::uint8_t{0},
                                 coutV ? std::uint8_t{1} : std::uint8_t{0}};
    for (int i = 0; i < k; ++i) {
      in.push_back(static_cast<std::uint8_t>((sum >> i) & 1u));
    }
    for (int i = 0; i < r; ++i) {
      in.push_back(static_cast<std::uint8_t>((prev >> i) & 1u));
    }
    const auto out = eval.evaluateOutputs(in);
    Result res{0, 0, false, false};
    for (int i = 0; i < k; ++i) {
      if (out[static_cast<std::size_t>(i)]) res.correctedSum |= 1ull << i;
    }
    for (int i = 0; i < r; ++i) {
      if (out[static_cast<std::size_t>(k + i)]) {
        res.balancedPrevTop |= 1ull << i;
      }
    }
    res.fault = out[static_cast<std::size_t>(k + r)] != 0;
    res.corrected = out[static_cast<std::size_t>(k + r + 1)] != 0;
    return res;
  }
};

TEST(CompensationTest, NoFaultPassesThrough) {
  const CompFixture fix(4, 1, 2);
  for (const bool carry : {false, true}) {
    const auto res = fix.run(carry, carry, 0b0101, 0b01);
    EXPECT_FALSE(res.fault);
    EXPECT_FALSE(res.corrected);
    EXPECT_EQ(res.correctedSum, 0b0101u);
    EXPECT_EQ(res.balancedPrevTop, 0b01u);
  }
}

TEST(CompensationTest, MissedCarryIncrementsWhenPossible) {
  const CompFixture fix(4, 2, 2);
  // local sum 0b0101: low 2 bits = 01, not all ones -> +1 -> 0b0110.
  const auto res = fix.run(false, true, 0b0101, 0b10);
  EXPECT_TRUE(res.fault);
  EXPECT_TRUE(res.corrected);
  EXPECT_EQ(res.correctedSum, 0b0110u);
  EXPECT_EQ(res.balancedPrevTop, 0b10u);  // untouched
}

TEST(CompensationTest, MissedCarryBalancesWhenLowBitsSaturated) {
  const CompFixture fix(4, 2, 2);
  // low 2 bits = 11: +1 would overflow the group -> balance prev to ones.
  const auto res = fix.run(false, true, 0b0111, 0b00);
  EXPECT_TRUE(res.fault);
  EXPECT_FALSE(res.corrected);
  EXPECT_EQ(res.correctedSum, 0b0111u);
  EXPECT_EQ(res.balancedPrevTop, 0b11u);
}

TEST(CompensationTest, SpuriousCarryDecrementsWhenPossible) {
  const CompFixture fix(4, 2, 2);
  // Injected spurious carry (spec=1, cout=0); low bits 10 -> -1 -> 01.
  const auto res = fix.run(true, false, 0b0110, 0b11);
  EXPECT_TRUE(res.fault);
  EXPECT_TRUE(res.corrected);
  EXPECT_EQ(res.correctedSum, 0b0101u);
  EXPECT_EQ(res.balancedPrevTop, 0b11u);
}

TEST(CompensationTest, SpuriousCarryBalancesTowardsZero) {
  const CompFixture fix(4, 2, 2);
  // low bits 00: -1 would borrow out of the group -> force prev MSBs to 0.
  const auto res = fix.run(true, false, 0b0100, 0b11);
  EXPECT_TRUE(res.fault);
  EXPECT_FALSE(res.corrected);
  EXPECT_EQ(res.correctedSum, 0b0100u);
  EXPECT_EQ(res.balancedPrevTop, 0b00u);
}

TEST(CompensationTest, NoCorrectionConfigAlwaysBalancesOnFault) {
  const CompFixture fix(4, 0, 3);
  const auto up = fix.run(false, true, 0b1111, 0b010);
  EXPECT_EQ(up.correctedSum, 0b1111u);
  EXPECT_EQ(up.balancedPrevTop, 0b111u);
  const auto down = fix.run(true, false, 0b0000, 0b101);
  EXPECT_EQ(down.balancedPrevTop, 0b000u);
}

TEST(CompensationTest, ExhaustiveAgainstBehavioralRule) {
  // Cross-check the gate-level COMP against a direct statement of the
  // compensation rule for every (spec, cout, sum, prev) combination.
  for (const int c : {0, 1, 2}) {
    const CompFixture fix(3, c, 2);
    for (int spec = 0; spec <= 1; ++spec) {
      for (int cout = 0; cout <= 1; ++cout) {
        for (std::uint64_t sum = 0; sum < 8; ++sum) {
          for (std::uint64_t prev = 0; prev < 4; ++prev) {
            const auto res = fix.run(spec != 0, cout != 0, sum, prev);
            std::uint64_t expSum = sum;
            std::uint64_t expPrev = prev;
            const int err = cout - spec;
            const std::uint64_t lowMask = (1ull << c) - 1;
            if (err > 0) {
              if (c > 0 && (sum & lowMask) != lowMask) {
                expSum = sum + 1;
              } else {
                expPrev = 0b11;
              }
            } else if (err < 0) {
              if (c > 0 && (sum & lowMask) != 0) {
                expSum = sum - 1;
              } else {
                expPrev = 0b00;
              }
            }
            EXPECT_EQ(res.correctedSum, expSum)
                << "c=" << c << " spec=" << spec << " cout=" << cout
                << " sum=" << sum;
            EXPECT_EQ(res.balancedPrevTop, expPrev)
                << "c=" << c << " spec=" << spec << " cout=" << cout
                << " sum=" << sum << " prev=" << prev;
          }
        }
      }
    }
  }
}

// The repo's central structural invariant: gate-level netlist == behavioral
// model, for every paper design and every sub-adder topology.
using DesignTopo = std::tuple<IsaConfig, AdderTopology>;

class IsaEquivalenceTest : public ::testing::TestWithParam<DesignTopo> {};

TEST_P(IsaEquivalenceTest, NetlistMatchesBehavioralModel) {
  const auto& [cfg, topo] = GetParam();
  IsaBuildOptions options;
  options.subAdderTopology = topo;
  const Netlist nl = buildIsaNetlist(cfg, options);
  const Evaluator eval(nl);
  const IsaAdder behavioral(cfg);

  std::mt19937_64 rng(97);
  for (int i = 0; i < 600; ++i) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    const bool cin = (rng() & 1u) != 0;
    const auto out =
        eval.evaluateOutputs(packOperands(a, b, cin, cfg.width));
    const oisa::core::IsaSum expected = behavioral.add(a, b, cin);
    EXPECT_EQ(unpackSum(out, cfg.width), expected.sum)
        << cfg.name() << " a=" << a << " b=" << b;
    EXPECT_EQ(unpackCarryOut(out, cfg.width), expected.carryOut);
  }

  // Directed corner vectors: carry chains, saturations, alternating bits.
  const std::uint64_t mask =
      cfg.width >= 64 ? ~0ull : (1ull << cfg.width) - 1;
  const std::uint64_t corners[] = {0,
                                   1,
                                   mask,
                                   mask - 1,
                                   mask / 3,       // 0x5555...
                                   mask / 3 * 2,   // 0xaaaa...
                                   0x00ff00ffull & mask,
                                   0x0f0f0f0full & mask};
  for (const std::uint64_t a : corners) {
    for (const std::uint64_t b : corners) {
      const auto out =
          eval.evaluateOutputs(packOperands(a, b, false, cfg.width));
      EXPECT_EQ(unpackSum(out, cfg.width), behavioral.add(a, b).sum)
          << cfg.name() << " corner a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDesignsAllTopologies, IsaEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(oisa::core::paperDesigns()),
                       ::testing::Values(AdderTopology::RippleCarry,
                                         AdderTopology::CarryLookahead,
                                         AdderTopology::Sklansky,
                                         AdderTopology::KoggeStone)),
    [](const auto& info) {
      std::string name;
      for (char ch : std::get<0>(info.param).name()) {
        if (std::isalnum(static_cast<unsigned char>(ch))) name += ch;
        if (ch == ',') name += '_';
      }
      name += "_";
      for (char ch : std::string(
               oisa::circuits::topologyName(std::get<1>(info.param)))) {
        if (ch != '-') name += ch;
      }
      return name;
    });

TEST(SpeculatorTest, AssumedCarryMatchesWindowCarryExhaustively) {
  for (int s = 1; s <= 6; ++s) {
    Netlist nl;
    std::vector<NetId> a, b;
    for (int i = 0; i < s; ++i) a.push_back(nl.input("a" + std::to_string(i)));
    for (int i = 0; i < s; ++i) b.push_back(nl.input("b" + std::to_string(i)));
    nl.output("spec", buildSpeculator(nl, a, b, /*assumeCarryIn=*/true));
    const Evaluator eval(nl);
    const std::uint64_t limit = std::uint64_t{1} << s;
    for (std::uint64_t av = 0; av < limit; ++av) {
      for (std::uint64_t bv = 0; bv < limit; ++bv) {
        std::vector<std::uint8_t> in;
        for (int i = 0; i < s; ++i) {
          in.push_back(static_cast<std::uint8_t>((av >> i) & 1u));
        }
        for (int i = 0; i < s; ++i) {
          in.push_back(static_cast<std::uint8_t>((bv >> i) & 1u));
        }
        const bool expected = ((av + bv + 1) >> s) & 1u;
        EXPECT_EQ(eval.evaluateOutputs(in)[0] != 0, expected)
            << "s=" << s << " a=" << av << " b=" << bv;
      }
    }
  }
}

class SpeculateHighEquivalenceTest
    : public ::testing::TestWithParam<IsaConfig> {};

TEST_P(SpeculateHighEquivalenceTest, NetlistMatchesBehavioralModel) {
  IsaConfig cfg = GetParam();
  cfg.speculateHigh = true;
  const Netlist nl = buildIsaNetlist(cfg);
  const Evaluator eval(nl);
  const IsaAdder behavioral(cfg);
  std::mt19937_64 rng(131);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    const auto out = eval.evaluateOutputs(packOperands(a, b, false, cfg.width));
    const oisa::core::IsaSum expected = behavioral.add(a, b, false);
    EXPECT_EQ(unpackSum(out, cfg.width), expected.sum)
        << cfg.name() << " a=" << a << " b=" << b;
    EXPECT_EQ(unpackCarryOut(out, cfg.width), expected.carryOut);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DualPolarity, SpeculateHighEquivalenceTest,
    ::testing::Values(oisa::core::makeIsa(8, 0, 0, 0),
                      oisa::core::makeIsa(8, 0, 1, 4),
                      oisa::core::makeIsa(8, 2, 0, 4),
                      oisa::core::makeIsa(16, 2, 1, 6),
                      oisa::core::makeIsa(16, 7, 0, 8)),
    [](const auto& info) {
      std::string name = "sh";
      for (char ch : info.param.name()) {
        if (std::isalnum(static_cast<unsigned char>(ch))) name += ch;
        if (ch == ',') name += '_';
      }
      return name;
    });

TEST(IsaNetlistTest, PortConventionIsStable) {
  const Netlist nl = buildIsaNetlist(oisa::core::makeIsa(8, 2, 1, 4));
  EXPECT_EQ(nl.primaryInputs().size(), 65u);  // 32 + 32 + cin
  EXPECT_EQ(nl.primaryOutputs().size(), 33u); // 32 + cout
  EXPECT_EQ(nl.net(nl.primaryInputs()[0]).name, "a0");
  EXPECT_EQ(nl.net(nl.primaryInputs()[32]).name, "b0");
  EXPECT_EQ(nl.net(nl.primaryInputs()[64]).name, "cin");
  EXPECT_EQ(nl.outputName(0), "s0");
  EXPECT_EQ(nl.outputName(32), "cout");
}

TEST(IsaNetlistTest, PackUnpackRoundTrip) {
  const auto in = packOperands(0xdeadbeef, 0x12345678, true, 32);
  ASSERT_EQ(in.size(), 65u);
  EXPECT_EQ(in[0], 1u);   // bit 0 of 0xdeadbeef
  EXPECT_EQ(in[64], 1u);  // cin
  std::vector<std::uint8_t> out(33, 0);
  out[0] = 1;
  out[31] = 1;
  out[32] = 1;
  EXPECT_EQ(unpackSum(out, 32), 0x80000001u);
  EXPECT_TRUE(unpackCarryOut(out, 32));
}

TEST(IsaNetlistTest, UnpackRejectsShortVectors) {
  const std::vector<std::uint8_t> tooShort(10, 0);
  EXPECT_THROW((void)unpackSum(tooShort, 32), std::invalid_argument);
  EXPECT_THROW((void)unpackCarryOut(tooShort, 32), std::invalid_argument);
}

}  // namespace

// Adder-generator correctness: every topology, multiple widths, with and
// without carry-in — exhaustive at small widths, randomized at full width.
#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "circuits/adder_topologies.h"
#include "reference/evaluator.h"

namespace {

using oisa::circuits::AdderPorts;
using oisa::circuits::AdderTopology;
using oisa::circuits::buildAdder;
using oisa::netlist::Evaluator;
using oisa::netlist::Netlist;
using oisa::netlist::NetId;

struct BuiltAdder {
  Netlist nl;
  int width;
  bool hasCin;
};

BuiltAdder makeAdder(int width, bool withCin, AdderTopology topo) {
  BuiltAdder built{Netlist("adder"), width, withCin};
  std::vector<NetId> a, b;
  for (int i = 0; i < width; ++i) {
    a.push_back(built.nl.input("a" + std::to_string(i)));
  }
  for (int i = 0; i < width; ++i) {
    b.push_back(built.nl.input("b" + std::to_string(i)));
  }
  std::optional<NetId> cin;
  if (withCin) cin = built.nl.input("cin");
  const AdderPorts ports = buildAdder(built.nl, a, b, cin, topo);
  for (int i = 0; i < width; ++i) {
    built.nl.output("s" + std::to_string(i),
                    ports.sum[static_cast<std::size_t>(i)]);
  }
  built.nl.output("cout", ports.carryOut);
  return built;
}

std::pair<std::uint64_t, bool> runAdder(const BuiltAdder& built,
                                        const Evaluator& eval,
                                        std::uint64_t a, std::uint64_t b,
                                        bool cin) {
  std::vector<std::uint8_t> in;
  for (int i = 0; i < built.width; ++i) {
    in.push_back(static_cast<std::uint8_t>((a >> i) & 1u));
  }
  for (int i = 0; i < built.width; ++i) {
    in.push_back(static_cast<std::uint8_t>((b >> i) & 1u));
  }
  if (built.hasCin) in.push_back(cin ? 1 : 0);
  const auto out = eval.evaluateOutputs(in);
  std::uint64_t sum = 0;
  for (int i = 0; i < built.width; ++i) {
    if (out[static_cast<std::size_t>(i)]) sum |= std::uint64_t{1} << i;
  }
  return {sum, out[static_cast<std::size_t>(built.width)] != 0};
}

using TopoWidthCin = std::tuple<AdderTopology, int, bool>;

class AdderTopologyTest : public ::testing::TestWithParam<TopoWidthCin> {};

TEST_P(AdderTopologyTest, ExhaustiveSmallWidths) {
  const auto [topo, width, withCin] = GetParam();
  if (width > 5) GTEST_SKIP() << "exhaustive only for small widths";
  const BuiltAdder built = makeAdder(width, withCin, topo);
  const Evaluator eval(built.nl);
  const std::uint64_t limit = std::uint64_t{1} << width;
  const std::uint64_t mask = limit - 1;
  for (std::uint64_t a = 0; a < limit; ++a) {
    for (std::uint64_t b = 0; b < limit; ++b) {
      for (int cin = 0; cin <= (withCin ? 1 : 0); ++cin) {
        const auto [sum, cout] = runAdder(built, eval, a, b, cin != 0);
        const std::uint64_t expected = a + b + static_cast<std::uint64_t>(cin);
        EXPECT_EQ(sum, expected & mask);
        EXPECT_EQ(cout, (expected >> width) != 0);
      }
    }
  }
}

TEST_P(AdderTopologyTest, RandomizedLargeWidths) {
  const auto [topo, width, withCin] = GetParam();
  const BuiltAdder built = makeAdder(width, withCin, topo);
  const Evaluator eval(built.nl);
  const std::uint64_t mask =
      width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  std::mt19937_64 rng(static_cast<std::uint64_t>(width) * 131u + 7u);
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t a = rng() & mask;
    const std::uint64_t b = rng() & mask;
    const bool cin = withCin && (rng() & 1u);
    const auto [sum, cout] = runAdder(built, eval, a, b, cin);
    // Reference via 128-bit-free arithmetic: split top bit.
    const std::uint64_t low =
        (a & (mask >> 1)) + (b & (mask >> 1)) + (cin ? 1u : 0u);
    const std::uint64_t topSum =
        ((a >> (width - 1)) & 1u) + ((b >> (width - 1)) & 1u) +
        ((low >> (width - 1)) & 1u);
    const std::uint64_t expectedSum =
        ((low & (mask >> 1)) |
         ((topSum & 1u) << (width - 1))) & mask;
    EXPECT_EQ(sum, expectedSum) << "a=" << a << " b=" << b << " cin=" << cin;
    EXPECT_EQ(cout, (topSum >> 1) != 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdderTopologyTest,
    ::testing::Combine(
        ::testing::Values(AdderTopology::RippleCarry,
                          AdderTopology::CarrySelect,
                          AdderTopology::CarryLookahead,
                          AdderTopology::BrentKung, AdderTopology::Sklansky,
                          AdderTopology::KoggeStone,
                          AdderTopology::HanCarlson),
        ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16, 32, 64),
        ::testing::Bool()),
    [](const auto& info) {
      std::string name(
          oisa::circuits::topologyName(std::get<0>(info.param)));
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_w" + std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_cin" : "_nocin");
    });

TEST(AdderAreaTest, PrefixAddersCostMoreGatesThanRipple) {
  const BuiltAdder rca = makeAdder(32, true, AdderTopology::RippleCarry);
  const BuiltAdder skl = makeAdder(32, true, AdderTopology::Sklansky);
  const BuiltAdder ks = makeAdder(32, true, AdderTopology::KoggeStone);
  EXPECT_LT(rca.nl.gateCount(), skl.nl.gateCount());
  EXPECT_LT(skl.nl.gateCount(), ks.nl.gateCount());
}

TEST(TreeHelperTest, AndOrTreesMatchReductions) {
  for (int n = 1; n <= 9; ++n) {
    for (std::uint64_t pattern = 0; pattern < (std::uint64_t{1} << n);
         ++pattern) {
      Netlist nl;
      std::vector<NetId> nets;
      for (int i = 0; i < n; ++i) {
        nets.push_back(nl.input("i" + std::to_string(i)));
      }
      nl.output("and", oisa::circuits::andTree(nl, nets));
      nl.output("or", oisa::circuits::orTree(nl, nets));
      const Evaluator eval(nl);
      std::vector<std::uint8_t> in;
      bool allOnes = true, anyOne = false;
      for (int i = 0; i < n; ++i) {
        const bool bit = ((pattern >> i) & 1u) != 0;
        in.push_back(bit ? 1 : 0);
        allOnes = allOnes && bit;
        anyOne = anyOne || bit;
      }
      const auto out = eval.evaluateOutputs(in);
      EXPECT_EQ(out[0] != 0, allOnes);
      EXPECT_EQ(out[1] != 0, anyOne);
    }
  }
}

TEST(BuildAdderTest, RejectsMismatchedSpans) {
  Netlist nl;
  const NetId a = nl.input("a");
  const std::vector<NetId> one{a};
  const std::vector<NetId> empty;
  EXPECT_THROW(
      (void)buildAdder(nl, one, empty, std::nullopt,
                       AdderTopology::RippleCarry),
      std::invalid_argument);
}

}  // namespace

// Word-parallel batch evaluation: lane-for-lane equivalence against the
// scalar Evaluator on every adder topology and ISA design, the 64x64 bit
// transpose, the gate table and the input-shape checks.
#include <gtest/gtest.h>

#include <array>
#include <random>
#include <vector>

#include "circuits/adder_topologies.h"
#include "circuits/isa_netlist.h"
#include "netlist/batch_evaluator.h"
#include "netlist/bitops.h"
#include "reference/evaluator.h"

namespace {

using oisa::circuits::AdderTopology;
using oisa::circuits::allTopologies;
using oisa::circuits::buildAdder;
using oisa::circuits::topologyName;
using oisa::netlist::BatchEvaluator;
using oisa::netlist::Evaluator;
using oisa::netlist::GateKind;
using oisa::netlist::LaneBlock64;
using oisa::netlist::Netlist;
using oisa::netlist::NetId;
using oisa::netlist::transpose64;

Netlist makeAdderNetlist(int width, AdderTopology topology) {
  Netlist nl("adder");
  std::vector<NetId> a;
  std::vector<NetId> b;
  for (int i = 0; i < width; ++i) a.push_back(nl.input("a" + std::to_string(i)));
  for (int i = 0; i < width; ++i) b.push_back(nl.input("b" + std::to_string(i)));
  const NetId cin = nl.input("cin");
  const auto ports = buildAdder(nl, a, b, cin, topology);
  for (int i = 0; i < width; ++i) {
    nl.output("s" + std::to_string(i), ports.sum[static_cast<std::size_t>(i)]);
  }
  nl.output("cout", ports.carryOut);
  return nl;
}

TEST(TransposeTest, RoundTripsRandomMatrices) {
  std::mt19937_64 rng(21);
  for (int rep = 0; rep < 10; ++rep) {
    std::array<std::uint64_t, 64> m{};
    for (auto& row : m) row = rng();
    const auto original = m;
    transpose64(m);
    // Spot-check the definition: bit j of transposed row i = bit i of
    // original row j.
    for (int i = 0; i < 64; i += 7) {
      for (int j = 0; j < 64; j += 5) {
        EXPECT_EQ((m[static_cast<std::size_t>(i)] >> j) & 1u,
                  (original[static_cast<std::size_t>(j)] >> i) & 1u)
            << "(" << i << "," << j << ")";
      }
    }
    transpose64(m);
    EXPECT_EQ(m, original);
  }
}

TEST(BatchEvaluatorTest, GateBlockMatchesScalarGateOnAllKinds) {
  // Lane 0 = (0,0,0), lane 1 = (1,0,0), ... lane 7 = (1,1,1): every input
  // combination of every kind, all in one word per operand.
  const LaneBlock64 a = LaneBlock64::splat(0xaa);  // bit L = L&1
  const LaneBlock64 b = LaneBlock64::splat(0xcc);  // bit L = (L>>1)&1
  const LaneBlock64 c = LaneBlock64::splat(0xf0);  // bit L = (L>>2)&1
  for (const GateKind kind : oisa::netlist::allGateKinds()) {
    const std::uint64_t word =
        oisa::netlist::evalGateBlock(kind, a, b, c).word(0);
    for (int lane = 0; lane < 8; ++lane) {
      const bool expected =
          evalGate(kind, (lane & 1) != 0, (lane & 2) != 0, (lane & 4) != 0);
      EXPECT_EQ((word >> lane) & 1u, expected ? 1u : 0u)
          << gateName(kind) << " lane " << lane;
    }
  }
}

TEST(BatchEvaluatorTest, MatchesScalarOnEveryAdderTopology) {
  std::mt19937_64 rng(33);
  for (const AdderTopology topology : allTopologies()) {
    const Netlist nl = makeAdderNetlist(16, topology);
    const Evaluator scalar(nl);
    const BatchEvaluator batch(nl);
    const std::size_t n = nl.primaryInputs().size();

    // 64 random vectors, lane-major.
    std::vector<std::vector<std::uint8_t>> vectors(64,
                                                   std::vector<std::uint8_t>(n));
    std::vector<std::uint64_t> inWords(n, 0);
    for (std::size_t lane = 0; lane < 64; ++lane) {
      for (std::size_t i = 0; i < n; ++i) {
        vectors[lane][i] = static_cast<std::uint8_t>(rng() & 1u);
        if (vectors[lane][i]) inWords[i] |= std::uint64_t{1} << lane;
      }
    }
    const auto outWords = batch.evaluateOutputs(inWords);
    for (std::size_t lane = 0; lane < 64; ++lane) {
      const auto scalarOut = scalar.evaluateOutputs(vectors[lane]);
      for (std::size_t o = 0; o < scalarOut.size(); ++o) {
        EXPECT_EQ((outWords[o] >> lane) & 1u, scalarOut[o])
            << topologyName(topology) << " lane " << lane << " output " << o;
      }
    }
  }
}

TEST(BatchEvaluatorTest, MatchesScalarOnIsaDesigns) {
  std::mt19937_64 rng(35);
  for (const auto& cfg : oisa::core::paperDesigns()) {
    const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
    const Evaluator scalar(nl);
    const BatchEvaluator batch(nl);
    const std::size_t n = nl.primaryInputs().size();
    std::vector<std::uint64_t> inWords(n);
    for (auto& w : inWords) w = rng();
    const auto batchValues = batch.evaluate(inWords);
    ASSERT_EQ(batchValues.size(), nl.netCount());
    std::vector<std::uint8_t> in(n);
    for (const std::size_t lane : {std::size_t{0}, std::size_t{17},
                                   std::size_t{63}}) {
      for (std::size_t i = 0; i < n; ++i) {
        in[i] = static_cast<std::uint8_t>((inWords[i] >> lane) & 1u);
      }
      const auto scalarValues = scalar.evaluate(in);
      for (std::size_t net = 0; net < scalarValues.size(); ++net) {
        ASSERT_EQ((batchValues[net] >> lane) & 1u, scalarValues[net])
            << cfg.name() << " net " << net << " lane " << lane;
      }
    }
  }
}

TEST(BatchEvaluatorTest, RejectsBadShapes) {
  const Netlist nl = makeAdderNetlist(8, AdderTopology::RippleCarry);
  const BatchEvaluator batch(nl);
  std::vector<std::uint64_t> wrong(nl.primaryInputs().size() + 1, 0);
  EXPECT_THROW((void)batch.evaluate(wrong), std::invalid_argument);

  // > 64 primary inputs: one word per input still works.
  const Netlist wide = makeAdderNetlist(32, AdderTopology::Sklansky);
  const BatchEvaluator wideBatch(wide);
  const std::vector<std::uint64_t> zeros(wide.primaryInputs().size(), 0);
  EXPECT_NO_THROW((void)wideBatch.evaluateOutputs(zeros));
}

}  // namespace

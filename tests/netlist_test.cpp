// Unit tests for the gate-level IR: construction, invariants, evaluation.
#include <gtest/gtest.h>

#include <random>
#include <span>
#include <string>

#include "circuits/synthesis.h"
#include "differential_harness.h"
#include "experiments/trace_collector.h"
#include "netlist/bench_io.h"
#include "netlist/compiled_netlist.h"
#include "netlist/netlist.h"
#include "reference/evaluator.h"
#include "timing/unroll.h"

namespace {

using oisa::netlist::Evaluator;
using oisa::netlist::GateId;
using oisa::netlist::GateKind;
using oisa::netlist::Netlist;
using oisa::netlist::NetId;

TEST(GateKindTest, ArityMatchesDefinition) {
  EXPECT_EQ(oisa::netlist::gateArity(GateKind::Const0), 0);
  EXPECT_EQ(oisa::netlist::gateArity(GateKind::Inv), 1);
  EXPECT_EQ(oisa::netlist::gateArity(GateKind::Xor2), 2);
  EXPECT_EQ(oisa::netlist::gateArity(GateKind::Maj3), 3);
  EXPECT_EQ(oisa::netlist::gateArity(GateKind::Mux2), 3);
}

// Exhaustive truth-table check of every gate function.
class GateEvalTest : public ::testing::TestWithParam<GateKind> {};

TEST_P(GateEvalTest, TruthTableMatchesReference) {
  const GateKind kind = GetParam();
  for (int pattern = 0; pattern < 8; ++pattern) {
    const bool a = (pattern & 1) != 0;
    const bool b = (pattern & 2) != 0;
    const bool c = (pattern & 4) != 0;
    bool expected = false;
    switch (kind) {
      case GateKind::Const0: expected = false; break;
      case GateKind::Const1: expected = true; break;
      case GateKind::Buf: expected = a; break;
      case GateKind::Inv: expected = !a; break;
      case GateKind::And2: expected = a && b; break;
      case GateKind::Or2: expected = a || b; break;
      case GateKind::Nand2: expected = !(a && b); break;
      case GateKind::Nor2: expected = !(a || b); break;
      case GateKind::Xor2: expected = a != b; break;
      case GateKind::Xnor2: expected = a == b; break;
      case GateKind::And3: expected = a && b && c; break;
      case GateKind::Or3: expected = a || b || c; break;
      case GateKind::Aoi21: expected = !((a && b) || c); break;
      case GateKind::Oai21: expected = !((a || b) && c); break;
      case GateKind::Mux2: expected = c ? b : a; break;
      case GateKind::Maj3:
        expected = (a && b) || (a && c) || (b && c);
        break;
    }
    EXPECT_EQ(oisa::netlist::evalGate(kind, a, b, c), expected)
        << oisa::netlist::gateName(kind) << " pattern " << pattern;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, GateEvalTest,
                         ::testing::ValuesIn(oisa::netlist::allGateKinds()),
                         [](const auto& info) {
                           return std::string(
                               oisa::netlist::gateName(info.param));
                         });

TEST(NetlistTest, BuildsHalfAdder) {
  Netlist nl("half_adder");
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId s = nl.gate2(GateKind::Xor2, a, b);
  const NetId c = nl.gate2(GateKind::And2, a, b);
  nl.output("s", s);
  nl.output("c", c);
  EXPECT_TRUE(oisa::testing::inGateOrder(nl));

  EXPECT_EQ(nl.gateCount(), 2u);
  EXPECT_EQ(nl.netCount(), 4u);
  EXPECT_EQ(nl.primaryInputs().size(), 2u);
  EXPECT_EQ(nl.primaryOutputs().size(), 2u);

  const Evaluator eval(nl);
  for (int pattern = 0; pattern < 4; ++pattern) {
    const std::uint8_t av = pattern & 1;
    const std::uint8_t bv = (pattern >> 1) & 1;
    const std::vector<std::uint8_t> in{av, bv};
    const auto out = eval.evaluateOutputs(in);
    EXPECT_EQ(out[0], av ^ bv);
    EXPECT_EQ(out[1], av & bv);
  }
}

TEST(NetlistTest, GateRejectsWrongArity) {
  Netlist nl;
  const NetId a = nl.input("a");
  EXPECT_THROW((void)nl.gate2(GateKind::Inv, a, a), std::invalid_argument);
  EXPECT_THROW((void)nl.gate1(GateKind::And2, a), std::invalid_argument);
}

TEST(NetlistTest, GateRejectsInvalidNet) {
  Netlist nl;
  EXPECT_THROW((void)nl.gate1(GateKind::Inv, NetId{}), std::invalid_argument);
  EXPECT_THROW((void)nl.gate1(GateKind::Inv, NetId{42}),
               std::invalid_argument);
}

TEST(NetlistTest, ConstantsAreCached) {
  Netlist nl;
  const NetId c0a = nl.constant(false);
  const NetId c0b = nl.constant(false);
  const NetId c1 = nl.constant(true);
  EXPECT_EQ(c0a, c0b);
  EXPECT_FALSE(c0a == c1);
  EXPECT_EQ(nl.gateCount(), 2u);
}

TEST(NetlistTest, EveryPipelineNetlistIsInGateOrder) {
  // Every engine sweeps gates in index order, so every netlist the
  // pipelines build must read only primary inputs and outputs of
  // lower-indexed gates: the twelve paper designs, relaxed and raw; each
  // one's sampled-output unrolling at the studies' CPRs, with and
  // without a stem clamp; c17 from the .bench reader; and the harness's
  // random DAGs.
  std::size_t checked = 0;
  const auto expectInGateOrder = [&](const Netlist& nl) {
    EXPECT_TRUE(oisa::testing::inGateOrder(nl));
    ++checked;
  };
  for (const bool relax : {true, false}) {
    oisa::circuits::SynthesisOptions options;
    options.relaxSlack = relax;
    const auto designs = oisa::circuits::synthesizePaperDesigns(
        oisa::timing::CellLibrary::generic65(), options);
    ASSERT_EQ(designs.size(), 12u);
    for (const auto& design : designs) {
      SCOPED_TRACE(design.config.name());
      const Netlist& nl = design.netlist;
      expectInGateOrder(nl);
      const auto compiled = oisa::netlist::CompiledNetlist::compile(nl);
      // A stem halfway through the gates, held at 1 like a defect.
      const oisa::timing::NetClamp clamp{
          nl.gateAt(GateId{static_cast<std::uint32_t>(nl.gateCount() / 2)})
              .out.value,
          true};
      for (const double cpr : {0.0, 5.0, 10.0, 15.0, 20.0, 50.0}) {
        const auto period = oisa::timing::quantizeSpanPs(
            oisa::experiments::overclockedPeriodNs(0.3, cpr));
        expectInGateOrder(
            oisa::timing::unrollSampled(*compiled, design.delays, period)
                .netlist);
        expectInGateOrder(oisa::timing::unrollSampled(*compiled,
                                                      design.delays, period,
                                                      std::span(&clamp, 1))
                              .netlist);
      }
    }
  }
  expectInGateOrder(oisa::netlist::readBenchString(oisa::testing::kC17, "c17")
                        .valueOrThrow());
  std::mt19937_64 rng(32);
  for (int i = 0; i < 16; ++i) {
    expectInGateOrder(oisa::testing::randomNetlist(
        rng, 4 + static_cast<int>(rng() % 13),
        10 + static_cast<int>(rng() % 90)));
  }
  EXPECT_EQ(checked, 2u * 12u * (1u + 6u * 2u) + 1u + 16u);
}

TEST(NetlistTest, FanoutCountsIncludeOutputs) {
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId x = nl.gate1(GateKind::Inv, a);
  (void)nl.gate1(GateKind::Inv, x);
  (void)nl.gate1(GateKind::Buf, x);
  nl.output("x", x);

  const auto counts = nl.fanoutCounts();
  EXPECT_EQ(counts[a.value], 1u);
  EXPECT_EQ(counts[x.value], 3u);  // two readers + primary output
}

TEST(NetlistTest, HistogramCountsKinds) {
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  (void)nl.gate2(GateKind::And2, a, b);
  (void)nl.gate2(GateKind::And2, b, a);
  (void)nl.gate1(GateKind::Inv, a);
  const auto hist = nl.histogram();
  EXPECT_EQ(hist.of(GateKind::And2), 2u);
  EXPECT_EQ(hist.of(GateKind::Inv), 1u);
  EXPECT_EQ(hist.total(), 3u);
}

TEST(EvaluatorTest, RejectsWrongInputCount) {
  Netlist nl;
  (void)nl.input("a");
  const Evaluator eval(nl);
  const std::vector<std::uint8_t> wrong{1, 0};
  EXPECT_THROW((void)eval.evaluate(wrong), std::invalid_argument);
}

TEST(EvaluatorTest, EvaluateWordPacksPorts) {
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  nl.output("x", nl.gate2(GateKind::Xor2, a, b));
  nl.output("y", nl.gate2(GateKind::And2, a, b));
  const Evaluator eval(nl);
  // a=1, b=1 -> xor=0, and=1 -> output word 0b10.
  EXPECT_EQ(eval.evaluateWord(0b11u), 0b10u);
  // a=1, b=0 -> xor=1, and=0 -> output word 0b01.
  EXPECT_EQ(eval.evaluateWord(0b01u), 0b01u);
}

}  // namespace

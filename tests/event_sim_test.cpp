// Event-driven timed simulation tests: settled equivalence with zero-delay
// evaluation, sampling semantics at short periods, glitch propagation, and
// history dependence of overclocked sampling.
#include <gtest/gtest.h>

#include <random>

#include "circuits/isa_netlist.h"
#include "core/isa_adder.h"
#include "reference/evaluator.h"
#include "timing/cell_library.h"
#include "timing/event_sim.h"
#include "timing/sta.h"

namespace {

using oisa::circuits::packOperands;
using oisa::circuits::unpackSum;
using oisa::netlist::Evaluator;
using oisa::netlist::GateKind;
using oisa::netlist::Netlist;
using oisa::netlist::NetId;
using oisa::timing::CellLibrary;
using oisa::timing::ClockedSampler;
using oisa::timing::DelayAnnotation;
using oisa::timing::TimedSimulator;

CellLibrary unitLibrary() {
  CellLibrary lib;
  for (const GateKind kind : oisa::netlist::allGateKinds()) {
    lib.cell(kind) = oisa::timing::CellTiming{1.0, 0.0, 1.0};
  }
  lib.cell(GateKind::Const0) = oisa::timing::CellTiming{0.0, 0.0, 0.0};
  lib.cell(GateKind::Const1) = oisa::timing::CellTiming{0.0, 0.0, 0.0};
  return lib;
}

TEST(TimedSimulatorTest, SettleMatchesZeroDelayEvaluation) {
  const auto cfg = oisa::core::makeIsa(8, 2, 1, 4);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const CellLibrary lib = CellLibrary::generic65();
  const DelayAnnotation delays(nl, lib);
  TimedSimulator sim(nl, delays);
  const Evaluator eval(nl);

  std::mt19937_64 rng(17);
  for (int i = 0; i < 50; ++i) {
    const auto in = packOperands(rng(), rng(), rng() & 1, 32);
    sim.applyInputs(in);
    (void)sim.settle();
    EXPECT_EQ(sim.sampleOutputs(), eval.evaluateOutputs(in));
  }
}

TEST(TimedSimulatorTest, SettleTimeNeverExceedsStaCriticalDelay) {
  const auto cfg = oisa::core::makeExact(32);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const CellLibrary lib = CellLibrary::generic65();
  const DelayAnnotation delays(nl, lib);
  const double critical = criticalDelayNs(nl, delays);
  TimedSimulator sim(nl, delays);

  std::mt19937_64 rng(19);
  for (int i = 0; i < 30; ++i) {
    const double before = sim.nowNs();
    sim.applyInputs(packOperands(rng(), rng(), false, 32));
    const double settled = sim.settle();
    EXPECT_LE(settled - before, critical + 1e-9);
  }
}

TEST(TimedSimulatorTest, OutputHoldsOldValueWhenPathTooSlow) {
  // Three-inverter chain, 1 ns per stage: sampling at 2 ns must return the
  // previous output value; at 4 ns the new one.
  Netlist nl;
  NetId n = nl.input("a");
  for (int i = 0; i < 3; ++i) n = nl.gate1(GateKind::Inv, n);
  nl.output("y", n);
  const DelayAnnotation delays(nl, unitLibrary());

  // Settled at a=0: y = !!!0 = 1.
  TimedSimulator sim(nl, delays);
  const std::vector<std::uint8_t> zero{0}, one{1};
  sim.applyInputs(zero);
  (void)sim.settle();
  ASSERT_EQ(sim.sampleOutputs()[0], 1);

  sim.applyInputs(one);
  sim.advance(2.0);
  EXPECT_EQ(sim.sampleOutputs()[0], 1) << "not settled yet: holds old value";
  sim.advance(2.0);
  EXPECT_EQ(sim.sampleOutputs()[0], 0) << "settled after 3 ns total";
}

TEST(TimedSimulatorTest, EventExactlyAtEdgeIsNotLatched) {
  // One inverter, 1 ns: an output event at exactly t=1 must not be visible
  // when sampling at t=1 (strictly-before semantics, zero setup time).
  Netlist nl;
  nl.output("y", nl.gate1(GateKind::Inv, nl.input("a")));
  const DelayAnnotation delays(nl, unitLibrary());
  TimedSimulator sim(nl, delays);
  const std::vector<std::uint8_t> zero{0}, one{1};
  sim.applyInputs(zero);
  (void)sim.settle();
  ASSERT_EQ(sim.sampleOutputs()[0], 1);
  sim.applyInputs(one);
  sim.advance(1.0);
  EXPECT_EQ(sim.sampleOutputs()[0], 1);
  sim.advance(1e-6);
  EXPECT_EQ(sim.sampleOutputs()[0], 0);
}

TEST(TimedSimulatorTest, GlitchPropagatesThroughUnbalancedXor) {
  // y = a XOR buf(a): statically 0, but a rising 'a' makes the XOR see
  // (new a, old buf) for 1 ns -> a 1-glitch between t=1 and t=2.
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId slow = nl.gate1(GateKind::Buf, a);
  nl.output("y", nl.gate2(GateKind::Xor2, a, slow));
  const DelayAnnotation delays(nl, unitLibrary());
  TimedSimulator sim(nl, delays);
  const std::vector<std::uint8_t> zero{0}, one{1};
  sim.applyInputs(zero);
  (void)sim.settle();
  ASSERT_EQ(sim.sampleOutputs()[0], 0);

  sim.applyInputs(one);
  sim.advance(1.5);  // inside the glitch window
  EXPECT_EQ(sim.sampleOutputs()[0], 1);
  (void)sim.settle();
  EXPECT_EQ(sim.sampleOutputs()[0], 0);
}

TEST(ClockedSamplerTest, GenerousPeriodReproducesGoldenOutputs) {
  const auto cfg = oisa::core::makeIsa(16, 2, 1, 6);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const CellLibrary lib = CellLibrary::generic65();
  const DelayAnnotation delays(nl, lib);
  ClockedSampler sampler(nl, delays, 10.0);  // effectively unclocked
  const oisa::core::IsaAdder behavioral(cfg);

  std::mt19937_64 rng(23);
  sampler.initialize(packOperands(rng(), rng(), false, 32));
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    const auto out = sampler.step(packOperands(a, b, false, 32));
    EXPECT_EQ(unpackSum(out, 32), behavioral.add(a, b).sum);
  }
}

TEST(ClockedSamplerTest, AggressiveOverclockProducesTimingErrors) {
  const auto cfg = oisa::core::makeExact(32);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const CellLibrary lib = CellLibrary::generic65();
  const DelayAnnotation delays(nl, lib);
  const double critical = criticalDelayNs(nl, delays);
  ClockedSampler sampler(nl, delays, critical * 0.6);  // savage overclock
  const oisa::core::IsaAdder behavioral(cfg);

  std::mt19937_64 rng(29);
  sampler.initialize(packOperands(rng(), rng(), false, 32));
  int errors = 0;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    const auto out = sampler.step(packOperands(a, b, false, 32));
    if (unpackSum(out, 32) != behavioral.add(a, b).sum) ++errors;
  }
  EXPECT_GT(errors, 0);
}

TEST(ClockedSamplerTest, TimingErrorsDependOnPreviousInput) {
  // Same current input, different previous input: an overclocked sample may
  // differ — the core reason the predictor needs x[t-1] features. Verify
  // the simulator can produce both behaviors for some input pair.
  Netlist nl;
  NetId n = nl.input("a");
  for (int i = 0; i < 4; ++i) n = nl.gate1(GateKind::Buf, n);
  nl.output("y", n);
  const DelayAnnotation delays(nl, unitLibrary());

  auto sampleAfter = [&](std::uint8_t prev, std::uint8_t cur) {
    ClockedSampler sampler(nl, delays, 2.0);  // 4 ns path, 2 ns clock
    const std::vector<std::uint8_t> p{prev}, c{cur};
    sampler.initialize(p);
    return sampler.step(c)[0];
  };
  // prev == cur: output already settled, stays correct.
  EXPECT_EQ(sampleAfter(1, 1), 1);
  // prev != cur: change cannot traverse 4 ns of buffers in 2 ns.
  EXPECT_EQ(sampleAfter(0, 1), 0);
}

TEST(ClockedSamplerTest, RejectsNonPositivePeriod) {
  Netlist nl;
  nl.output("y", nl.gate1(GateKind::Buf, nl.input("a")));
  const DelayAnnotation delays(nl, unitLibrary());
  EXPECT_THROW(ClockedSampler(nl, delays, 0.0), std::invalid_argument);
}

TEST(TimedSimulatorTest, RejectsMismatchedAnnotation) {
  Netlist a, b;
  a.output("y", a.gate1(GateKind::Buf, a.input("x")));
  b.output("y", b.gate1(GateKind::Inv, b.gate1(GateKind::Buf, b.input("x"))));
  const CellLibrary lib = unitLibrary();
  const DelayAnnotation delaysB(b, lib);
  EXPECT_THROW(TimedSimulator(a, delaysB), std::invalid_argument);
}

}  // namespace

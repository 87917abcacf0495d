// Behavioural tests of the event wheel (LaneTimedSimulator /
// LaneClockedSampler): settled equivalence with zero-delay evaluation in
// every lane, sampling semantics at short periods, glitch propagation, and
// history dependence of overclocked sampling. Single-stream cases drive
// lane 0 with lanes 1-63 at the all-inputs-low reset state, as power and
// Razor do.
#include <gtest/gtest.h>

#include <random>
#include <span>

#include "circuits/isa_netlist.h"
#include "core/isa_adder.h"
#include "netlist/compiled_netlist.h"
#include "reference/evaluator.h"
#include "timing/cell_library.h"
#include "timing/lane_sim.h"
#include "timing/sta.h"

#include "differential_harness.h"

namespace {

using oisa::netlist::CompiledNetlist;
using oisa::netlist::Evaluator;
using oisa::netlist::GateKind;
using oisa::netlist::Netlist;
using oisa::netlist::NetId;
using oisa::timing::CellLibrary;
using oisa::timing::DelayAnnotation;
using oisa::timing::LaneClockedSampler;
using oisa::timing::LaneTimedSimulator;
using oisa::timing::TimePs;
using oisa::testing::unitLibrary;

constexpr std::size_t kLanes = LaneTimedSimulator::kLanes;

/// Lane L's bits of `words`.
std::vector<std::uint8_t> laneBits(std::span<const std::uint64_t> words,
                                   std::size_t lane) {
  std::vector<std::uint8_t> bits(words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    bits[i] = static_cast<std::uint8_t>((words[i] >> lane) & 1u);
  }
  return bits;
}

/// Operand words of a 32-bit adder netlist: lane L adds a[L] + b[L] with
/// carry-in low.
std::vector<std::uint64_t> operandWords(std::span<const std::uint64_t> a,
                                        std::span<const std::uint64_t> b) {
  std::vector<std::uint64_t> words(65, 0);
  for (std::size_t L = 0; L < a.size(); ++L) {
    for (std::size_t i = 0; i < 32; ++i) {
      words[i] |= ((a[L] >> i) & 1u) << L;
      words[32 + i] |= ((b[L] >> i) & 1u) << L;
    }
  }
  return words;
}

/// Lane L's 32-bit sum from the output words.
std::uint64_t laneSum(std::span<const std::uint64_t> out, std::size_t lane) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < 32; ++i) sum |= ((out[i] >> lane) & 1u) << i;
  return sum;
}

TEST(LaneWheelTest, SettleMatchesZeroDelayEvaluationInEveryLane) {
  const auto cfg = oisa::core::makeIsa(8, 2, 1, 4);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const DelayAnnotation delays(nl, CellLibrary::generic65());
  LaneTimedSimulator sim(nl, delays);
  const Evaluator eval(nl);

  std::mt19937_64 rng(17);
  std::vector<std::uint64_t> in(nl.primaryInputs().size());
  for (int i = 0; i < 50; ++i) {
    for (auto& w : in) w = rng();
    sim.applyInputs(in);
    (void)sim.settlePs();
    const auto out = sim.sampleOutputs();
    for (std::size_t L = 0; L < kLanes; ++L) {
      ASSERT_EQ(laneBits(out, L), eval.evaluateOutputs(laneBits(in, L)))
          << "vector " << i << " lane " << L;
    }
  }
}

TEST(LaneWheelTest, SettleTimeNeverExceedsStaCriticalDelay) {
  const auto cfg = oisa::core::makeExact(32);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const DelayAnnotation delays(nl, CellLibrary::generic65());
  const double criticalPs =
      criticalDelayNs(nl, delays) * oisa::timing::kPsPerNs;
  LaneTimedSimulator sim(nl, delays);

  std::mt19937_64 rng(19);
  std::vector<std::uint64_t> in(nl.primaryInputs().size());
  for (int i = 0; i < 30; ++i) {
    const TimePs before = sim.nowPs();
    for (auto& w : in) w = rng();
    sim.applyInputs(in);
    const TimePs settled = sim.settlePs();
    EXPECT_LE(static_cast<double>(settled - before), criticalPs + 1e-6);
  }
}

TEST(LaneWheelTest, OutputHoldsOldValueWhenPathTooSlow) {
  // Three-inverter chain, 1 ns per stage: sampling at 2 ns must return the
  // previous output value; at 4 ns the new one.
  Netlist nl;
  NetId n = nl.input("a");
  for (int i = 0; i < 3; ++i) n = nl.gate1(GateKind::Inv, n);
  nl.output("y", n);
  const DelayAnnotation delays(nl, unitLibrary());

  // Settled at a=0: y = !!!0 = 1.
  LaneTimedSimulator sim(nl, delays);
  const std::vector<std::uint64_t> zero{0}, one{1};
  sim.applyInputs(zero);
  (void)sim.settlePs();
  ASSERT_EQ(sim.sampleOutputs()[0] & 1u, 1u);

  sim.applyInputs(one);
  sim.advancePs(2000);
  EXPECT_EQ(sim.sampleOutputs()[0] & 1u, 1u) << "not settled: holds old value";
  sim.advancePs(2000);
  EXPECT_EQ(sim.sampleOutputs()[0] & 1u, 0u) << "settled after 3 ns total";
}

TEST(LaneWheelTest, EventExactlyAtEdgeIsNotLatched) {
  // One inverter, 1 ns: an output event at exactly t=1 ns must not be
  // visible when sampling at t=1 ns (strictly-before semantics, zero setup
  // time); one picosecond later it is.
  Netlist nl;
  nl.output("y", nl.gate1(GateKind::Inv, nl.input("a")));
  const DelayAnnotation delays(nl, unitLibrary());
  LaneTimedSimulator sim(nl, delays);
  const std::vector<std::uint64_t> zero{0}, one{1};
  sim.applyInputs(zero);
  (void)sim.settlePs();
  ASSERT_EQ(sim.sampleOutputs()[0] & 1u, 1u);
  sim.applyInputs(one);
  sim.advancePs(1000);
  EXPECT_EQ(sim.sampleOutputs()[0] & 1u, 1u);
  sim.advancePs(1);
  EXPECT_EQ(sim.sampleOutputs()[0] & 1u, 0u);
}

TEST(LaneWheelTest, GlitchPropagatesThroughUnbalancedXor) {
  // y = a XOR buf(a): statically 0, but a rising 'a' makes the XOR see
  // (new a, old buf) for 1 ns -> a 1-glitch between t=1 and t=2.
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId slow = nl.gate1(GateKind::Buf, a);
  nl.output("y", nl.gate2(GateKind::Xor2, a, slow));
  const DelayAnnotation delays(nl, unitLibrary());
  LaneTimedSimulator sim(nl, delays);
  const std::vector<std::uint64_t> zero{0}, one{1};
  sim.applyInputs(zero);
  (void)sim.settlePs();
  ASSERT_EQ(sim.sampleOutputs()[0], 0u);

  sim.applyInputs(one);
  sim.advancePs(1500);  // inside the glitch window
  EXPECT_EQ(sim.sampleOutputs()[0], 1u) << "lane 0 glitches, lanes 1-63 not";
  (void)sim.settlePs();
  EXPECT_EQ(sim.sampleOutputs()[0], 0u);
}

TEST(LaneClockedSamplerTest, GenerousPeriodReproducesGoldenOutputs) {
  const auto cfg = oisa::core::makeIsa(16, 2, 1, 6);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const DelayAnnotation delays(nl, CellLibrary::generic65());
  LaneClockedSampler sampler(CompiledNetlist::compile(nl), delays,
                             10.0);  // effectively unclocked
  const oisa::core::IsaAdder behavioral(cfg);

  std::mt19937_64 rng(23);
  std::vector<std::uint64_t> a(kLanes), b(kLanes), out;
  for (auto* v : {&a, &b}) {
    for (auto& x : *v) x = rng();
  }
  sampler.initialize(operandWords(a, b));
  for (int i = 0; i < 20; ++i) {
    for (auto* v : {&a, &b}) {
      for (auto& x : *v) x = rng();
    }
    sampler.stepInto(operandWords(a, b), out);
    for (std::size_t L = 0; L < kLanes; ++L) {
      ASSERT_EQ(laneSum(out, L), behavioral.add(a[L], b[L]).sum)
          << "step " << i << " lane " << L;
    }
  }
}

TEST(LaneClockedSamplerTest, AggressiveOverclockProducesTimingErrors) {
  const auto cfg = oisa::core::makeExact(32);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const DelayAnnotation delays(nl, CellLibrary::generic65());
  const double critical = criticalDelayNs(nl, delays);
  LaneClockedSampler sampler(CompiledNetlist::compile(nl), delays,
                             critical * 0.6);  // savage overclock
  const oisa::core::IsaAdder behavioral(cfg);

  std::mt19937_64 rng(29);
  std::vector<std::uint64_t> a(kLanes), b(kLanes), out;
  for (auto* v : {&a, &b}) {
    for (auto& x : *v) x = rng();
  }
  sampler.initialize(operandWords(a, b));
  int errors = 0;
  for (int i = 0; i < 8; ++i) {
    for (auto* v : {&a, &b}) {
      for (auto& x : *v) x = rng();
    }
    sampler.stepInto(operandWords(a, b), out);
    for (std::size_t L = 0; L < kLanes; ++L) {
      errors += laneSum(out, L) != behavioral.add(a[L], b[L]).sum;
    }
  }
  EXPECT_GT(errors, 0);
}

TEST(LaneClockedSamplerTest, TimingErrorsDependOnPreviousInput) {
  // Same current input, different previous input: an overclocked sample may
  // differ — the core reason the predictor needs x[t-1] features. Lane
  // 2p + c runs previous input p, current input c through a 4 ns buffer
  // chain clocked at 2 ns.
  Netlist nl;
  NetId n = nl.input("a");
  for (int i = 0; i < 4; ++i) n = nl.gate1(GateKind::Buf, n);
  nl.output("y", n);
  const DelayAnnotation delays(nl, unitLibrary());
  LaneClockedSampler sampler(CompiledNetlist::compile(nl), delays, 2.0);
  const std::vector<std::uint64_t> previous{0b1100}, current{0b1010};
  std::vector<std::uint64_t> out;
  sampler.initialize(previous);
  sampler.stepInto(current, out);
  // prev == cur (lanes 0, 3): already settled, stays correct. prev != cur
  // (lanes 1, 2): the change cannot traverse 4 ns of buffers in 2 ns.
  EXPECT_EQ(out[0] & 0b1111u, 0b1100u);
}

TEST(LaneClockedSamplerTest, RejectsNonPositivePeriod) {
  Netlist nl;
  nl.output("y", nl.gate1(GateKind::Buf, nl.input("a")));
  const DelayAnnotation delays(nl, unitLibrary());
  EXPECT_THROW(LaneClockedSampler(CompiledNetlist::compile(nl), delays, 0.0),
               std::invalid_argument);
}

TEST(LaneWheelTest, RejectsMismatchedAnnotation) {
  Netlist a, b;
  a.output("y", a.gate1(GateKind::Buf, a.input("x")));
  b.output("y", b.gate1(GateKind::Inv, b.gate1(GateKind::Buf, b.input("x"))));
  const DelayAnnotation delaysB(b, unitLibrary());
  EXPECT_THROW(LaneTimedSimulator(a, delaysB), std::invalid_argument);
}

}  // namespace

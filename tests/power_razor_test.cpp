// Power-estimation and Razor-detection tests, with the seed heap engine
// (HeapSimulator) as the reference for both: power's toggles and energy
// bits equal a per-commit sum taken through the heap's change observer,
// and Razor's detections equal a heap run sampled at both edges.
#include <gtest/gtest.h>

#include <bit>
#include <random>

#include "circuits/synthesis.h"
#include "core/isa_adder.h"
#include "reference/heap_sim.h"
#include "timing/power.h"
#include "timing/razor.h"
#include "timing/sta.h"

namespace {

using oisa::circuits::packOperands;
using oisa::circuits::SynthesisOptions;
using oisa::circuits::synthesize;
using oisa::timing::CellLibrary;
using oisa::timing::HeapSimulator;
using oisa::timing::measurePower;
using oisa::timing::PowerLibrary;
using oisa::timing::RazorSampler;

/// One random 32-bit stimulus, b drawn before a: the order these tests'
/// expectations were set with.
std::vector<std::uint8_t> randomStimulus(std::mt19937_64& rng) {
  const std::uint64_t b = rng();
  const std::uint64_t a = rng();
  return packOperands(a, b, false, 32);
}

std::vector<std::vector<std::uint8_t>> randomStimuli(int cycles,
                                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<std::uint8_t>> stimuli;
  for (int i = 0; i < cycles; ++i) stimuli.push_back(randomStimulus(rng));
  return stimuli;
}

TEST(PowerTest, IdleCircuitBurnsOnlyLeakage) {
  const auto design = synthesize(oisa::core::makeIsa(8, 0, 0, 4),
                                 CellLibrary::generic65(),
                                 SynthesisOptions{});
  const PowerLibrary power = PowerLibrary::generic65();
  // Constant stimulus: after the settled reset nothing toggles.
  std::vector<std::vector<std::uint8_t>> stimuli(
      5, packOperands(0x1234, 0x5678, false, 32));
  const auto report = measurePower(design.netlist, design.delays, power,
                                   0.3, stimuli);
  EXPECT_EQ(report.toggles, 0u);
  EXPECT_EQ(report.dynamicPowerUw, 0.0);
  EXPECT_GT(report.leakagePowerUw, 0.0);
  EXPECT_DOUBLE_EQ(report.totalPowerUw, report.leakagePowerUw);
}

TEST(PowerTest, ActivityScalesDynamicPower) {
  const auto design = synthesize(oisa::core::makeIsa(8, 0, 0, 4),
                                 CellLibrary::generic65(),
                                 SynthesisOptions{});
  const PowerLibrary power = PowerLibrary::generic65();
  const auto active = measurePower(design.netlist, design.delays, power,
                                   0.3, randomStimuli(60, 3));
  EXPECT_GT(active.toggles, 0u);
  EXPECT_GT(active.dynamicPowerUw, active.leakagePowerUw * 0.1);
  EXPECT_GT(active.meanTogglesPerCycle, 10.0);
  EXPECT_NEAR(active.energyPerOpFj,
              active.dynamicPowerUw * 0.3, 1e-9);
}

TEST(PowerTest, SmallerDesignUsesLessEnergyThanExact) {
  // The paper's energy-efficiency claim: speculative adders beat the exact
  // one on both area (leakage) and switched capacitance.
  const CellLibrary lib = CellLibrary::generic65();
  const PowerLibrary power = PowerLibrary::generic65();
  const auto stimuli = randomStimuli(80, 7);
  const auto isa =
      synthesize(oisa::core::makeIsa(8, 0, 0, 4), lib, SynthesisOptions{});
  const auto exact =
      synthesize(oisa::core::makeExact(32), lib, SynthesisOptions{});
  const auto isaReport =
      measurePower(isa.netlist, isa.delays, power, 0.3, stimuli);
  const auto exactReport =
      measurePower(exact.netlist, exact.delays, power, 0.3, stimuli);
  EXPECT_LT(isaReport.leakagePowerUw, exactReport.leakagePowerUw);
  EXPECT_LT(isaReport.energyPerOpFj, exactReport.energyPerOpFj);
}

TEST(PowerTest, RejectsDegenerateStimuli) {
  const auto design = synthesize(oisa::core::makeIsa(8, 0, 0, 0),
                                 CellLibrary::generic65(),
                                 SynthesisOptions{});
  const std::vector<std::vector<std::uint8_t>> one(
      1, packOperands(0, 0, false, 32));
  EXPECT_THROW((void)measurePower(design.netlist, design.delays,
                                  PowerLibrary::generic65(), 0.3, one),
               std::invalid_argument);
}

TEST(PowerTest, MatchesHeapReferenceOnAllPaperDesigns) {
  // table3_power's settings: 0.3 ns, 400 cycles after the settled reset,
  // seed 42. The reference bills every committed change after the reset
  // at the driving cell's toggle energy, summed in the heap's commit
  // order, so the energy must match bit for bit.
  const CellLibrary lib = CellLibrary::generic65();
  const PowerLibrary power = PowerLibrary::generic65();
  const auto stimuli = randomStimuli(401, 42);
  const oisa::timing::TimePs periodPs = oisa::timing::quantizeSpanPs(0.3);
  for (const auto& cfg : oisa::core::paperDesigns()) {
    SCOPED_TRACE(cfg.name());
    const auto design = synthesize(cfg, lib, SynthesisOptions{});
    const auto& nl = design.netlist;
    const auto fanout = nl.fanoutCounts();
    std::vector<double> toggleEnergy(nl.netCount(), 0.0);
    for (std::uint32_t gi = 0; gi < nl.gateCount(); ++gi) {
      const auto& g = nl.gateAt(oisa::netlist::GateId{gi});
      const unsigned loads = fanout[g.out.value];
      const unsigned extra = loads > 1 ? loads - 1 : 0;
      toggleEnergy[g.out.value] =
          power.cell(g.kind).switchingFj +
          power.cell(g.kind).perFanoutFj * static_cast<double>(extra);
    }
    HeapSimulator heap(nl, design.delays);
    double energy = 0.0;
    std::uint64_t toggles = 0;
    bool billing = false;
    heap.setChangeObserver([&](double, oisa::netlist::NetId net, bool) {
      if (!billing) return;
      energy += toggleEnergy[net.value];
      ++toggles;
    });
    heap.applyInputs(stimuli[0]);
    (void)heap.settlePs();
    billing = true;
    for (std::size_t i = 1; i < stimuli.size(); ++i) {
      heap.applyInputs(stimuli[i]);
      heap.advancePs(periodPs);
    }
    (void)heap.settlePs();

    const auto report =
        measurePower(nl, design.delays, power, 0.3, stimuli);
    EXPECT_GT(toggles, 0u);
    EXPECT_EQ(report.toggles, toggles);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(report.dynamicEnergyFj),
              std::bit_cast<std::uint64_t>(energy))
        << report.dynamicEnergyFj << " vs " << energy;
  }
}

TEST(RazorTest, DetectionsMatchHeapSampledAtBothEdges) {
  // ablation_razor's designs, CPRs and shadow margin: the heap engine
  // samples at the main edge, then again a margin later, and a cycle
  // detects when the two samples differ.
  oisa::circuits::SynthesisOptions options;
  options.relaxSlack = true;
  const CellLibrary lib = CellLibrary::generic65();
  const double margin = 0.06;
  std::uint64_t anyDetections = 0;
  for (const auto& cfg :
       {oisa::core::makeIsa(8, 0, 0, 4), oisa::core::makeIsa(16, 2, 1, 6),
        oisa::core::makeExact(32)}) {
    const auto design = synthesize(cfg, lib, options);
    for (const double cpr : {5.0, 10.0, 15.0}) {
      SCOPED_TRACE(cfg.name() + " @ " + std::to_string(cpr));
      const double period = 0.3 * (1.0 - cpr / 100.0);
      RazorSampler razor(design.netlist, design.delays, period, margin);
      HeapSimulator heap(design.netlist, design.delays);
      const auto stimuli = randomStimuli(301, 53);
      razor.initialize(stimuli[0]);
      heap.applyInputs(stimuli[0]);
      (void)heap.settlePs();
      std::uint64_t heapDetections = 0;
      for (std::size_t i = 1; i < stimuli.size(); ++i) {
        const auto r = razor.step(stimuli[i]);
        heap.applyInputs(stimuli[i]);
        heap.advancePs(oisa::timing::quantizeSpanPs(period));
        const auto main = heap.sampleOutputs();
        heap.advancePs(oisa::timing::quantizeSpanPs(margin));
        const auto shadow = heap.sampleOutputs();
        ASSERT_EQ(r.main, main) << "cycle " << i;
        ASSERT_EQ(r.shadow, shadow) << "cycle " << i;
        heapDetections += main != shadow;
      }
      EXPECT_EQ(razor.detections(), heapDetections);
      anyDetections += heapDetections;
    }
  }
  EXPECT_GT(anyDetections, 0u);
}

TEST(RazorTest, SafeClockNeverDetects) {
  const auto design = synthesize(oisa::core::makeIsa(8, 0, 0, 4),
                                 CellLibrary::generic65(),
                                 SynthesisOptions{});
  RazorSampler razor(design.netlist, design.delays, /*period=*/0.5,
                     /*margin=*/0.2);
  std::mt19937_64 rng(11);
  razor.initialize(randomStimulus(rng));
  for (int i = 0; i < 300; ++i) {
    const auto r = razor.step(randomStimulus(rng));
    EXPECT_FALSE(r.detected);
  }
  EXPECT_EQ(razor.detections(), 0u);
  EXPECT_DOUBLE_EQ(razor.effectiveCyclesPerOp(), 1.0);
}

TEST(RazorTest, AggressiveClockDetectsLatePaths) {
  // Clock far below the critical delay with a generous shadow margin: late
  // transitions land between the two samples and are flagged.
  const auto design = synthesize(oisa::core::makeExact(32),
                                 CellLibrary::generic65(),
                                 SynthesisOptions{});
  const double critical = design.criticalDelayNs;
  RazorSampler razor(design.netlist, design.delays, critical * 0.55,
                     critical);
  std::mt19937_64 rng(13);
  razor.initialize(randomStimulus(rng));
  int detections = 0;
  for (int i = 0; i < 400; ++i) {
    detections += razor.step(randomStimulus(rng)).detected;
  }
  EXPECT_GT(detections, 0);
  EXPECT_EQ(razor.detections(), static_cast<std::uint64_t>(detections));
  EXPECT_GT(razor.detectionRate(), 0.0);
  EXPECT_GT(razor.effectiveCyclesPerOp(), 1.0);
}

TEST(RazorTest, ShadowWithFullMarginMatchesSettledOutputs) {
  // With margin >= remaining settle time, the shadow equals the golden
  // (functional) outputs, so detection == "main sample was erroneous".
  const auto design = synthesize(oisa::core::makeIsa(16, 2, 1, 6),
                                 CellLibrary::generic65(),
                                 SynthesisOptions{});
  const oisa::core::IsaAdder behavioral(design.config);
  RazorSampler razor(design.netlist, design.delays, 0.255,
                     design.criticalDelayNs);
  std::mt19937_64 rng(17);
  razor.initialize(randomStimulus(rng));
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    const auto r = razor.step(packOperands(a, b, false, 32));
    const auto gold = behavioral.add(a, b);
    EXPECT_EQ(oisa::circuits::unpackSum(r.shadow, 32), gold.sum);
    const bool mainWrong =
        oisa::circuits::unpackSum(r.main, 32) != gold.sum ||
        oisa::circuits::unpackCarryOut(r.main, 32) != gold.carryOut;
    EXPECT_EQ(r.detected, mainWrong);
  }
}

TEST(RazorTest, ThroughputGainAccountsForReplay) {
  const auto design = synthesize(oisa::core::makeIsa(8, 0, 0, 4),
                                 CellLibrary::generic65(),
                                 SynthesisOptions{});
  RazorSampler razor(design.netlist, design.delays, 0.15, 0.3,
                     /*penalty=*/5.0);
  std::mt19937_64 rng(19);
  razor.initialize(randomStimulus(rng));
  for (int i = 0; i < 200; ++i) {
    (void)razor.step(randomStimulus(rng));
  }
  // 0.3 / 0.15 = 2x frequency, discounted by replays.
  const double gain = razor.throughputGain(0.3);
  EXPECT_LT(gain, 2.0 + 1e-9);
  EXPECT_GT(gain, 0.0);
  EXPECT_NEAR(gain, 2.0 / razor.effectiveCyclesPerOp(), 1e-12);
}

TEST(RazorTest, RejectsBadParameters) {
  const auto design = synthesize(oisa::core::makeIsa(8, 0, 0, 0),
                                 CellLibrary::generic65(),
                                 SynthesisOptions{});
  EXPECT_THROW(RazorSampler(design.netlist, design.delays, 0.0, 0.1),
               std::invalid_argument);
  EXPECT_THROW(RazorSampler(design.netlist, design.delays, 0.3, -0.1),
               std::invalid_argument);
}

}  // namespace

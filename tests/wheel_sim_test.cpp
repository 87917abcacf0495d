// Differential tests of the integer-time wheel engine (TimedSimulator)
// against the retained seed heap engine (HeapSimulator): both run on the
// same integer-picosecond grid, so agreement is exact — per-cycle sampled
// outputs, final net state, and committed-event counts. Also covers the
// ps quantization rules, wheel-specific edge cases, and the GridScheduler
// determinism contract (bit-identical sweeps at any thread count).
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <stdexcept>

#include "circuits/isa_netlist.h"
#include "circuits/synthesis.h"
#include "core/isa_config.h"
#include "experiments/grid_scheduler.h"
#include "experiments/runner.h"
#include "netlist/gate.h"
#include "reference/heap_sim.h"
#include "timing/cell_library.h"
#include "timing/delay_annotation.h"
#include "timing/event_sim.h"
#include "timing/sta.h"

#include "differential_harness.h"

namespace {

using oisa::circuits::packOperands;
using oisa::netlist::GateKind;
using oisa::netlist::Netlist;
using oisa::netlist::NetId;
using oisa::timing::CellLibrary;
using oisa::timing::DelayAnnotation;
using oisa::timing::HeapSimulator;
using oisa::timing::TimedSimulator;
using oisa::timing::TimePs;

using oisa::testing::randomNetlist;
using oisa::testing::unitLibrary;

std::vector<std::uint8_t> randomInputs(std::mt19937_64& rng,
                                       std::size_t count) {
  std::vector<std::uint8_t> in(count);
  for (auto& v : in) v = static_cast<std::uint8_t>(rng() & 1);
  return in;
}

/// Drives both engines through `cycles` clocked cycles and asserts exact
/// agreement on every sample, the final committed-event count, and every
/// net value.
void expectEnginesAgree(const Netlist& nl, const DelayAnnotation& delays,
                        TimePs periodPs, std::uint64_t cycles,
                        std::uint64_t stimulusSeed) {
  TimedSimulator wheel(nl, delays);
  HeapSimulator heap(nl, delays);
  std::mt19937_64 rng(stimulusSeed);
  const std::size_t inputs = nl.primaryInputs().size();

  const auto reset = randomInputs(rng, inputs);
  wheel.applyInputs(reset);
  heap.applyInputs(reset);
  EXPECT_EQ(wheel.settlePs(), heap.settlePs());

  std::vector<std::uint8_t> wheelOut;
  for (std::uint64_t t = 0; t < cycles; ++t) {
    const auto in = randomInputs(rng, inputs);
    wheel.applyInputs(in);
    heap.applyInputs(in);
    wheel.advancePs(periodPs);
    heap.advancePs(periodPs);
    wheel.sampleOutputsInto(wheelOut);
    ASSERT_EQ(wheelOut, heap.sampleOutputs()) << "cycle " << t;
  }
  EXPECT_EQ(wheel.eventsProcessed(), heap.eventsProcessed());
  for (std::uint32_t n = 0; n < nl.netCount(); ++n) {
    ASSERT_EQ(wheel.netValue(NetId{n}), heap.netValue(NetId{n}))
        << "net " << n;
  }
}

TEST(QuantizationTest, DelaysFloorToThePicosecondGrid) {
  Netlist nl;
  nl.output("y", nl.gate1(GateKind::Buf, nl.input("a")));
  DelayAnnotation delays(nl, unitLibrary());
  const oisa::netlist::GateId g{0};
  delays.setDelayNs(g, 0.0185);  // 18.5 ps floors to 18
  EXPECT_EQ(delays.delayPs(g), 18);
  delays.setDelayNs(g, 0.011);  // representation noise must not floor to 10
  EXPECT_EQ(delays.delayPs(g), 11);
  delays.setDelayNs(g, 0.0009);  // sub-ps floors to zero
  EXPECT_EQ(delays.delayPs(g), 0);
}

TEST(QuantizationTest, SpansRoundUpToThePicosecondGrid) {
  EXPECT_EQ(oisa::timing::quantizeSpanPs(1.0), 1000);
  EXPECT_EQ(oisa::timing::quantizeSpanPs(0.255), 255);
  EXPECT_EQ(oisa::timing::quantizeSpanPs(1e-6), 1);  // advance-past-epsilon
  EXPECT_EQ(oisa::timing::quantizeSpanPs(0.2541), 255);
  EXPECT_EQ(oisa::timing::quantizeSpanPs(0.0), 0);
}

TEST(WheelVsHeapTest, ExactAgreementOnRandomNetlists) {
  std::mt19937_64 rng(101);
  for (int trial = 0; trial < 12; ++trial) {
    const Netlist nl = randomNetlist(rng, 12, 80, 8);
    DelayAnnotation delays(nl, CellLibrary::generic65());
    // Process-variation jitter produces off-grid double delays, so the
    // shared floor quantization itself is under test.
    delays.applyVariation(rng, 0.35);
    const double critical = criticalDelayNs(nl, delays);
    // Sweep from savage overclock to comfortable slack.
    for (const double frac : {0.3, 0.7, 1.5}) {
      const TimePs period = std::max<TimePs>(
          1, oisa::timing::quantizeSpanPs(critical * frac));
      expectEnginesAgree(nl, delays, period, 60,
                         900 + static_cast<std::uint64_t>(trial));
    }
  }
}

TEST(WheelVsHeapTest, ExactAgreementOnAllPaperDesigns) {
  oisa::circuits::SynthesisOptions options;
  options.relaxSlack = true;  // exercise relaxation-mutated delays
  const auto designs = oisa::circuits::synthesizePaperDesigns(
      CellLibrary::generic65(), options);
  ASSERT_EQ(designs.size(), 12u);
  const TimePs period =
      oisa::timing::quantizeSpanPs(0.3 * 0.90);  // 10% CPR
  for (const auto& design : designs) {
    SCOPED_TRACE(design.config.name());
    expectEnginesAgree(design.netlist, design.delays, period, 120, 7);
  }
}

TEST(WheelSimulatorTest, SettleTimeIsExactOnTheGrid) {
  // Three-stage chain at 1 ns per stage: settle must land on exactly
  // 3000 ps — the integer grid needs no epsilon horizon.
  Netlist nl;
  NetId n = nl.input("a");
  for (int i = 0; i < 3; ++i) n = nl.gate1(GateKind::Inv, n);
  nl.output("y", n);
  const DelayAnnotation delays(nl, unitLibrary());
  TimedSimulator sim(nl, delays);
  sim.applyInputs(std::vector<std::uint8_t>{1});
  EXPECT_EQ(sim.settlePs(), 3000);
  EXPECT_DOUBLE_EQ(sim.nowNs(), 3.0);
}

TEST(WheelSimulatorTest, RejectsDelaysBeyondTheSupportedRange) {
  // The wheel's memory scales with the maximum gate delay, and GateRec
  // narrows it to 32 bits: out-of-range delays must throw at
  // construction, not wrap and silently diverge from the heap engine.
  Netlist nl;
  nl.output("y", nl.gate1(GateKind::Buf, nl.input("a")));
  DelayAnnotation delays(nl, unitLibrary());
  delays.setDelayNs(oisa::netlist::GateId{0}, 2000.0);  // 2e6 ps > 2^20
  EXPECT_THROW(TimedSimulator(nl, delays), std::invalid_argument);
  HeapSimulator heap(nl, delays);  // reference engine has no such bound
}

TEST(WheelSimulatorTest, SplitAdvanceMatchesWholePeriod) {
  // Advancing one period in uneven chunks must process the same events in
  // the same order as a single advance (cursor/wheel bookkeeping check).
  const auto cfg = oisa::core::makeIsa(8, 2, 1, 4);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const DelayAnnotation delays(nl, CellLibrary::generic65());
  TimedSimulator whole(nl, delays);
  TimedSimulator split(nl, delays);

  std::mt19937_64 rng(31);
  for (int t = 0; t < 40; ++t) {
    const auto in = packOperands(rng(), rng(), rng() & 1, 32);
    whole.applyInputs(in);
    split.applyInputs(in);
    whole.advancePs(230);
    split.advancePs(13);
    split.advancePs(200);
    split.advancePs(17);
    ASSERT_EQ(whole.sampleOutputs(), split.sampleOutputs()) << "cycle " << t;
  }
  EXPECT_EQ(whole.eventsProcessed(), split.eventsProcessed());
  EXPECT_EQ(whole.nowPs(), split.nowPs());
}

TEST(WheelSimulatorTest, ResetReplaysIdentically) {
  const auto cfg = oisa::core::makeIsa(8, 0, 1, 6);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const DelayAnnotation delays(nl, CellLibrary::generic65());
  TimedSimulator sim(nl, delays);

  auto runOnce = [&] {
    std::vector<std::uint8_t> trace;
    std::mt19937_64 rng(77);
    for (int t = 0; t < 30; ++t) {
      sim.applyInputs(packOperands(rng(), rng(), false, 32));
      sim.advancePs(240);
      const auto out = sim.sampleOutputs();
      trace.insert(trace.end(), out.begin(), out.end());
    }
    return trace;
  };
  const auto first = runOnce();
  sim.reset();
  EXPECT_EQ(sim.nowPs(), 0);
  EXPECT_EQ(sim.eventsProcessed(), 0u);
  EXPECT_EQ(runOnce(), first);
}

TEST(GridSchedulerTest, RunsEveryCellExactlyOnce) {
  oisa::experiments::GridScheduler pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(GridSchedulerTest, PropagatesTaskExceptions) {
  for (const unsigned threads : {1u, 4u}) {
    oisa::experiments::GridScheduler pool(threads);
    EXPECT_THROW(
        pool.run(64,
                 [&](std::size_t i) {
                   if (i == 13) throw std::runtime_error("cell failed");
                 }),
        std::runtime_error);
    // The pool must survive a failed run and accept the next one.
    std::atomic<int> ran{0};
    pool.run(8, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 8);
  }
}

TEST(GridSchedulerTest, ErrorCombinationIsBitIdenticalAcrossThreadCounts) {
  const CellLibrary lib = CellLibrary::generic65();
  std::vector<oisa::circuits::SynthesizedDesign> designs;
  designs.push_back(oisa::circuits::synthesize(
      oisa::core::makeIsa(8, 0, 0, 4), lib, {}));
  designs.push_back(oisa::circuits::synthesize(
      oisa::core::makeIsa(8, 2, 1, 4), lib, {}));
  const std::vector<double> cprs = {5.0, 15.0};

  auto runAt = [&](unsigned threads) {
    oisa::experiments::RunOptions options;
    options.cycles = 400;
    options.seed = 42;
    options.threads = threads;
    return oisa::experiments::runErrorCombination(designs, cprs, options);
  };
  const auto serial = runAt(1);
  ASSERT_EQ(serial.size(), 4u);
  for (const unsigned threads : {2u, 8u}) {
    const auto parallel = runAt(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE(serial[i].design + " @ " +
                   std::to_string(serial[i].cprPercent));
      EXPECT_EQ(parallel[i].design, serial[i].design);
      // Exact equality on purpose: per-cell state makes the grid result a
      // pure function of (inputs, seed), independent of scheduling.
      EXPECT_EQ(parallel[i].rmsRelStruct, serial[i].rmsRelStruct);
      EXPECT_EQ(parallel[i].rmsRelTiming, serial[i].rmsRelTiming);
      EXPECT_EQ(parallel[i].rmsRelJoint, serial[i].rmsRelJoint);
      EXPECT_EQ(parallel[i].meanAbsJointArith, serial[i].meanAbsJointArith);
      EXPECT_EQ(parallel[i].structErrorRate, serial[i].structErrorRate);
      EXPECT_EQ(parallel[i].timingErrorRate, serial[i].timingErrorRate);
      EXPECT_EQ(parallel[i].cycles, serial[i].cycles);
    }
  }
}

}  // namespace

// Differential tests of the event wheel (LaneTimedSimulator) against the
// retained seed heap engine (HeapSimulator) in the configuration power,
// Razor and the reference collector use: one stream in lane 0, lanes 1-63
// at the all-inputs-low reset state. Both engines run on the same
// integer-picosecond grid, so agreement is exact — per-cycle sampled
// outputs, final net state, and committed-event counts. Also covers the
// ps quantization rules and the wheel's own bookkeeping edge cases.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "circuits/isa_netlist.h"
#include "circuits/synthesis.h"
#include "core/isa_config.h"
#include "netlist/gate.h"
#include "reference/heap_sim.h"
#include "timing/cell_library.h"
#include "timing/delay_annotation.h"
#include "timing/lane_sim.h"
#include "timing/sta.h"

#include "differential_harness.h"

namespace {

using oisa::netlist::GateKind;
using oisa::netlist::Netlist;
using oisa::netlist::NetId;
using oisa::timing::CellLibrary;
using oisa::timing::DelayAnnotation;
using oisa::timing::HeapSimulator;
using oisa::timing::LaneTimedSimulator;
using oisa::timing::TimePs;

using oisa::testing::randomNetlist;
using oisa::testing::unitLibrary;

std::vector<std::uint8_t> randomInputs(std::mt19937_64& rng,
                                       std::size_t count) {
  std::vector<std::uint8_t> in(count);
  for (auto& v : in) v = static_cast<std::uint8_t>(rng() & 1);
  return in;
}

/// Drives the wheel (lane 0) and the heap engine through `cycles` clocked
/// cycles and asserts exact agreement on every sample, the final
/// committed-event count, and every net value; lanes 1-63 must stay at the
/// reset state throughout.
void expectEnginesAgree(const Netlist& nl, const DelayAnnotation& delays,
                        TimePs periodPs, std::uint64_t cycles,
                        std::uint64_t stimulusSeed) {
  LaneTimedSimulator wheel(nl, delays);
  HeapSimulator heap(nl, delays);
  const auto resetWords = [&] {
    std::vector<std::uint64_t> words(nl.netCount());
    for (std::uint32_t n = 0; n < nl.netCount(); ++n) {
      words[n] = wheel.netWord(NetId{n});
    }
    return words;
  }();
  std::mt19937_64 rng(stimulusSeed);
  const std::size_t inputs = nl.primaryInputs().size();
  std::vector<std::uint64_t> words(inputs);
  const auto apply = [&](const std::vector<std::uint8_t>& in) {
    words.assign(in.begin(), in.end());
    wheel.applyInputs(words);
    heap.applyInputs(in);
  };

  apply(randomInputs(rng, inputs));
  EXPECT_EQ(wheel.settlePs(), heap.settlePs());

  std::vector<std::uint64_t> wheelOut;
  for (std::uint64_t t = 0; t < cycles; ++t) {
    apply(randomInputs(rng, inputs));
    wheel.advancePs(periodPs);
    heap.advancePs(periodPs);
    wheel.sampleOutputsInto(wheelOut);
    const auto heapOut = heap.sampleOutputs();
    ASSERT_EQ(wheelOut.size(), heapOut.size());
    for (std::size_t o = 0; o < heapOut.size(); ++o) {
      ASSERT_EQ(wheelOut[o] & 1u, heapOut[o]) << "cycle " << t << " out " << o;
    }
  }
  EXPECT_EQ(wheel.eventsProcessed(), heap.eventsProcessed());
  for (std::uint32_t n = 0; n < nl.netCount(); ++n) {
    const std::uint64_t word = wheel.netWord(NetId{n});
    ASSERT_EQ((word & 1u) != 0, heap.netValue(NetId{n})) << "net " << n;
    ASSERT_EQ(word >> 1, resetWords[n] >> 1) << "net " << n << " lanes 1-63";
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
  LaneTimedSimulator sim(nl, delays);
  sim.applyInputs(std::vector<std::uint64_t>{1});
  EXPECT_EQ(sim.settlePs(), 3000);
  EXPECT_EQ(sim.nowPs(), 3000);
}

TEST(WheelSimulatorTest, RejectsDelaysBeyondTheSupportedRange) {
  // The wheel's memory scales with the maximum gate delay, and GateRec
  // narrows it to 32 bits: out-of-range delays must throw at
  // construction, not wrap and silently diverge from the heap engine.
  Netlist nl;
  nl.output("y", nl.gate1(GateKind::Buf, nl.input("a")));
  DelayAnnotation delays(nl, unitLibrary());
  delays.setDelayNs(oisa::netlist::GateId{0}, 2000.0);  // 2e6 ps > 2^20
  EXPECT_THROW(LaneTimedSimulator(nl, delays), std::invalid_argument);
  HeapSimulator heap(nl, delays);  // reference engine has no such bound
}

TEST(WheelSimulatorTest, SplitAdvanceMatchesWholePeriod) {
  // Advancing one period in uneven chunks must process the same events in
  // the same order as a single advance (cursor/wheel bookkeeping check).
  const auto cfg = oisa::core::makeIsa(8, 2, 1, 4);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const DelayAnnotation delays(nl, CellLibrary::generic65());
  LaneTimedSimulator whole(nl, delays);
  LaneTimedSimulator split(nl, delays);

  std::mt19937_64 rng(31);
  std::vector<std::uint64_t> in(nl.primaryInputs().size());
  for (int t = 0; t < 40; ++t) {
    for (auto& w : in) w = rng();
    whole.applyInputs(in);
    split.applyInputs(in);
    whole.advancePs(230);
    split.advancePs(13);
    split.advancePs(200);
    split.advancePs(17);
    ASSERT_EQ(whole.sampleOutputs(), split.sampleOutputs()) << "cycle " << t;
  }
  EXPECT_EQ(whole.eventsProcessed(), split.eventsProcessed());
  EXPECT_EQ(whole.laneTransitionsCommitted(), split.laneTransitionsCommitted());
  EXPECT_EQ(whole.nowPs(), split.nowPs());
}

}  // namespace

// Differential tests of the event wheel (LaneTimedSimulator) and the trace
// collector against their scalar references. Each of the wheel's 64 lanes
// must match an independent seed heap engine (HeapSimulator) run
// bit-exactly — per-cycle sampled outputs, settle behavior, final net
// state, committed transitions — on random netlists, all twelve paper
// design points and a deep ripple-carry chain; the TraceCollector must
// reproduce the sequential collector record for record at any lane count,
// including deep overclocks whose records depend on several earlier
// stimuli, and must refuse designs it cannot sample with typed errors.
// Also covers the shared CompiledNetlist substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <functional>
#include <optional>
#include <random>
#include <stdexcept>

#include "circuits/adder_topologies.h"
#include "circuits/isa_netlist.h"
#include "circuits/synthesis.h"
#include "core/error_model.h"
#include "core/isa_adder.h"
#include "core/status.h"
#include "core/isa_config.h"
#include "experiments/checkpoint.h"
#include "experiments/grid_scheduler.h"
#include "experiments/runner.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"
#include "fault/fault_universe.h"
#include "fault/timed_fault.h"
#include "netlist/batch_evaluator.h"
#include "netlist/bench_io.h"
#include "netlist/compiled_netlist.h"
#include "netlist/gate.h"
#include "obs/metrics.h"
#include "reference/heap_sim.h"
#include "reference/scalar_collector.h"
#include "timing/cell_library.h"
#include "timing/delay_annotation.h"
#include "timing/lane_sim.h"
#include "timing/sta.h"

#include "differential_harness.h"

namespace {

using oisa::circuits::SynthesizedDesign;
using oisa::experiments::TraceCollector;
using oisa::netlist::CompiledNetlist;
using oisa::netlist::GateId;
using oisa::netlist::GateKind;
using oisa::netlist::Netlist;
using oisa::netlist::NetId;
using oisa::timing::CellLibrary;
using oisa::timing::DelayAnnotation;
using oisa::timing::HeapSimulator;
using oisa::timing::LaneTimedSimulator;
using oisa::timing::TimePs;

constexpr std::size_t kLanes = LaneTimedSimulator::kLanes;

using oisa::testing::expectStreamsMatchScalar;
using oisa::testing::expectTracesEqual;
using oisa::testing::randomNetlist;
using oisa::testing::unitLibrary;

/// Drives one LaneTimedSimulator and 64 HeapSimulators (lane L's stream
/// into heap L) through `cycles` clocked cycles of random stimulus and
/// asserts exact per-lane agreement: every sampled output every cycle, the
/// final settle, every net word, and the committed transitions — the
/// wheel's lane transitions, less the input flips, are the heaps' events.
void expectLaneMatchesHeaps(const Netlist& nl, const DelayAnnotation& delays,
                            TimePs periodPs, int cycles,
                            std::uint64_t stimulusSeed) {
  LaneTimedSimulator lane(nl, delays);
  std::vector<HeapSimulator> heaps;
  heaps.reserve(kLanes);
  for (std::size_t L = 0; L < kLanes; ++L) heaps.emplace_back(nl, delays);

  std::mt19937_64 rng(stimulusSeed);
  const std::size_t inputs = nl.primaryInputs().size();
  const std::size_t outputs = nl.primaryOutputs().size();
  std::vector<std::uint64_t> inWords(inputs, 0);
  std::vector<std::uint8_t> heapIn(inputs);
  std::vector<std::uint64_t> laneOut;
  std::uint64_t inputFlips = 0;

  const auto applyAll = [&] {
    for (auto& w : inWords) {
      const std::uint64_t next = rng();
      inputFlips += static_cast<std::uint64_t>(std::popcount(w ^ next));
      w = next;
    }
    lane.applyInputs(inWords);
    for (std::size_t L = 0; L < kLanes; ++L) {
      for (std::size_t i = 0; i < inputs; ++i) {
        heapIn[i] = static_cast<std::uint8_t>((inWords[i] >> L) & 1u);
      }
      heaps[L].applyInputs(heapIn);
    }
  };

  // Settled reset vector, then overclocked cycles.
  applyAll();
  (void)lane.settlePs();
  for (auto& h : heaps) (void)h.settlePs();

  for (int t = 0; t < cycles; ++t) {
    applyAll();
    lane.advancePs(periodPs);
    lane.sampleOutputsInto(laneOut);
    for (std::size_t L = 0; L < kLanes; ++L) {
      heaps[L].advancePs(periodPs);
      const auto heapOut = heaps[L].sampleOutputs();
      for (std::size_t o = 0; o < outputs; ++o) {
        ASSERT_EQ((laneOut[o] >> L) & 1u,
                  static_cast<std::uint64_t>(heapOut[o]))
            << "cycle " << t << " lane " << L << " output " << o;
      }
    }
  }

  // Full settle must agree lane for lane too (quiescent state check).
  (void)lane.settlePs();
  std::uint64_t heapEvents = 0;
  for (std::size_t L = 0; L < kLanes; ++L) {
    (void)heaps[L].settlePs();
    heapEvents += heaps[L].eventsProcessed();
    for (std::uint32_t n = 0; n < nl.netCount(); ++n) {
      ASSERT_EQ((lane.netWord(NetId{n}) >> L) & 1u,
                static_cast<std::uint64_t>(heaps[L].netValue(NetId{n})))
          << "net " << n << " lane " << L;
    }
  }
  EXPECT_EQ(lane.laneTransitionsCommitted() - inputFlips, heapEvents);
}

TEST(LaneSimulatorTest, ExactAgreementOnRandomNetlists) {
  OISA_TRACE_SEED(404);
  std::mt19937_64 rng(404);
  for (int trial = 0; trial < 6; ++trial) {
    const Netlist nl = randomNetlist(rng, 12, 80);
    DelayAnnotation delays(nl, CellLibrary::generic65());
    // Off-grid double delays exercise the shared floor quantization.
    delays.applyVariation(rng, 0.35);
    const double critical = criticalDelayNs(nl, delays);
    // Savage overclock to comfortable slack.
    for (const double frac : {0.3, 0.7, 1.5}) {
      const TimePs period = std::max<TimePs>(
          1, oisa::timing::quantizeSpanPs(critical * frac));
      expectLaneMatchesHeaps(nl, delays, period, 30,
                               5000 + static_cast<std::uint64_t>(trial));
    }
  }
}

TEST(LaneSimulatorTest, ExactAgreementOnAllPaperDesigns) {
  oisa::circuits::SynthesisOptions options;
  options.relaxSlack = true;  // exercise relaxation-mutated delays
  const auto designs = oisa::circuits::synthesizePaperDesigns(
      CellLibrary::generic65(), options);
  ASSERT_EQ(designs.size(), 12u);
  for (const double cpr : {5.0, 15.0}) {
    const TimePs period =
        oisa::timing::quantizeSpanPs(0.3 * (1.0 - cpr / 100.0));
    for (const auto& design : designs) {
      SCOPED_TRACE(design.config.name() + " @ " + std::to_string(cpr));
      expectLaneMatchesHeaps(design.netlist, design.delays, period, 15, 7);
    }
  }
}

TEST(LaneSimulatorTest, ExactAgreementOnDeepRippleChain) {
  // A 66-bit ripple-carry adder: one carry chain far deeper than any paper
  // design, over more than 64 inputs and outputs.
  constexpr int kWidth = 66;
  Netlist nl("ripple66");
  std::vector<NetId> a;
  std::vector<NetId> b;
  for (int i = 0; i < kWidth; ++i) a.push_back(nl.input("a" + std::to_string(i)));
  for (int i = 0; i < kWidth; ++i) b.push_back(nl.input("b" + std::to_string(i)));
  const NetId cin = nl.input("cin");
  const auto ports = oisa::circuits::buildAdder(
      nl, a, b, cin, oisa::circuits::AdderTopology::RippleCarry);
  for (int i = 0; i < kWidth; ++i) {
    nl.output("s" + std::to_string(i), ports.sum[static_cast<std::size_t>(i)]);
  }
  nl.output("cout", ports.carryOut);
  const DelayAnnotation delays(nl, CellLibrary::generic65());
  const double critical = criticalDelayNs(nl, delays);
  for (const double frac : {0.5, 0.85}) {
    const TimePs period =
        std::max<TimePs>(1, oisa::timing::quantizeSpanPs(critical * frac));
    expectLaneMatchesHeaps(nl, delays, period, 20, 11);
  }
}

TEST(LaneSimulatorTest, ResetReplaysIdentically) {
  const auto cfg = oisa::core::makeIsa(8, 2, 1, 4);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const DelayAnnotation delays(nl, CellLibrary::generic65());
  LaneTimedSimulator sim(nl, delays);
  const std::size_t inputs = nl.primaryInputs().size();

  auto runOnce = [&] {
    std::vector<std::uint64_t> trace;
    std::vector<std::uint64_t> in(inputs);
    std::vector<std::uint64_t> out;
    std::mt19937_64 rng(99);
    for (int t = 0; t < 25; ++t) {
      for (auto& w : in) w = rng();
      sim.applyInputs(in);
      sim.advancePs(240);
      sim.sampleOutputsInto(out);
      trace.insert(trace.end(), out.begin(), out.end());
    }
    return trace;
  };
  const auto first = runOnce();
  sim.reset();
  EXPECT_EQ(sim.nowPs(), 0);
  EXPECT_EQ(sim.eventsProcessed(), 0u);
  EXPECT_EQ(sim.laneTransitionsCommitted(), 0u);
  EXPECT_EQ(runOnce(), first);
}

// ---------------------------------------------------------------------------
// Lane trace collector vs the sequential reference.
// ---------------------------------------------------------------------------

SynthesizedDesign testDesign(int block, int spec, int corr, int red) {
  oisa::circuits::SynthesisOptions options;
  options.relaxSlack = true;
  return oisa::circuits::synthesize(
      oisa::core::makeIsa(block, spec, corr, red),
      CellLibrary::generic65(), options);
}

TEST(LaneTraceCollectorTest, MatchesScalarReferenceAcrossCprAndWorkloads) {
  const auto design = testDesign(8, 2, 1, 4);
  for (const double cpr : {5.0, 15.0}) {
    const double period = oisa::experiments::overclockedPeriodNs(0.3, cpr);
    TraceCollector collector(design, period);
    for (const char* kind : {"uniform", "random-walk"}) {
      SCOPED_TRACE(std::string(kind) + " @ " + std::to_string(cpr));
      // Non-multiple-of-64 cycle count: uneven chunks + tail lanes.
      for (const std::uint64_t cycles : {std::uint64_t{391},
                                         std::uint64_t{64},
                                         std::uint64_t{5}}) {
        auto scalarWl = oisa::experiments::makeWorkload(kind, 32, 77);
        auto laneWl = oisa::experiments::makeWorkload(kind, 32, 77);
        const auto scalar = oisa::experiments::collectTraceScalar(
            design, period, *scalarWl, cycles);
        expectTracesEqual(collector.collect(*laneWl, cycles), scalar);
      }
    }
  }
}

TEST(LaneTraceCollectorTest, MatchesScalarOnDeepOverclockWithWarmUp) {
  // Period far below half the critical path: a record's sampled outputs
  // depend on two or more stimuli before its own (historyDepth() >= 3).
  const auto design = testDesign(8, 0, 0, 4);
  const double period = design.criticalDelayNs * 0.35;
  oisa::experiments::TraceCollector collector(design, period);
  ASSERT_GE(collector.historyDepth(), 3);

  auto scalarWl = oisa::experiments::makeWorkload("uniform", 32, 13);
  auto laneWl = oisa::experiments::makeWorkload("uniform", 32, 13);
  const auto scalar = oisa::experiments::collectTraceScalar(
      design, period, *scalarWl, 500);
  const auto lane = collector.collect(*laneWl, 500);
  expectTracesEqual(lane, scalar);
}

TEST(LaneTraceCollectorTest, BitIdenticalAtAnyLaneCount) {
  const auto design = testDesign(16, 2, 0, 4);
  const double period = oisa::experiments::overclockedPeriodNs(0.3, 15.0);
  auto collectAt = [&](std::size_t lanes) {
    oisa::experiments::TraceCollector collector(design, period, lanes);
    auto wl = oisa::experiments::makeWorkload("uniform", 32, 5);
    return collector.collect(*wl, 300);
  };
  const auto one = collectAt(1);  // one lane
  expectTracesEqual(collectAt(7), one);
  expectTracesEqual(collectAt(64), one);
}

TEST(LaneTraceCollectorTest, CollectorReuseIsDeterministic) {
  // One collector instance across repeated collects (the runner's usage):
  // reset() must restore pristine state.
  const auto design = testDesign(8, 2, 1, 4);
  oisa::experiments::TraceCollector collector(
      design, oisa::experiments::overclockedPeriodNs(0.3, 15.0));
  auto first = [&] {
    auto wl = oisa::experiments::makeWorkload("uniform", 32, 21);
    return collector.collect(*wl, 200);
  }();
  auto second = [&] {
    auto wl = oisa::experiments::makeWorkload("uniform", 32, 21);
    return collector.collect(*wl, 200);
  }();
  expectTracesEqual(second, first);
}

/// Three full windows of `lanes` lanes plus a ragged tail of `tail`
/// records.
std::uint64_t multiWindowCycles(std::size_t lanes, std::uint64_t tail) {
  return 3 * lanes * TraceCollector::kWindowSteps + tail;
}

TEST(LaneTraceCollectorTest, MultiWindowRunMatchesScalarReference) {
  const auto design = testDesign(8, 2, 1, 4);
  const double period = oisa::experiments::overclockedPeriodNs(0.3, 15.0);
  TraceCollector collector(design, period, 7);
  const std::uint64_t cycles = multiWindowCycles(7, 45);
  auto scalarWl = oisa::experiments::makeWorkload("uniform", 32, 61);
  auto laneWl = oisa::experiments::makeWorkload("uniform", 32, 61);
  const auto scalar = oisa::experiments::collectTraceScalar(
      design, period, *scalarWl, cycles);
  expectTracesEqual(collector.collect(*laneWl, cycles), scalar);
}

TEST(LaneTraceCollectorTest, MultiWindowDeepOverclockCarriesWarmUp) {
  // Every window's first records take their history from stimuli carried
  // over from the previous window, on five lanes and on one.
  const auto design = testDesign(8, 0, 0, 4);
  const double period = design.criticalDelayNs * 0.35;
  const std::uint64_t cycles = multiWindowCycles(5, 37);
  auto scalarWl = oisa::experiments::makeWorkload("random-walk", 32, 17);
  const auto scalar = oisa::experiments::collectTraceScalar(
      design, period, *scalarWl, cycles);
  for (const std::size_t lanes : {5, 1}) {
    SCOPED_TRACE("max lanes " + std::to_string(lanes));
    TraceCollector collector(design, period, lanes);
    ASSERT_GE(collector.historyDepth(), 3);
    auto laneWl = oisa::experiments::makeWorkload("random-walk", 32, 17);
    expectTracesEqual(collector.collect(*laneWl, cycles), scalar);
  }
}

void expectStatsEqual(const oisa::core::ErrorStats& a,
                      const oisa::core::ErrorStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.meanAbs(), b.meanAbs());
  EXPECT_EQ(a.rms(), b.rms());
  EXPECT_EQ(a.errorRate(), b.errorRate());
  EXPECT_EQ(a.minValue(), b.minValue());
  EXPECT_EQ(a.maxValue(), b.maxValue());
}

TEST(LaneTraceCollectorTest, StreamedCombinationEqualsCollected) {
  const auto design = testDesign(8, 2, 1, 4);
  const double period = oisa::experiments::overclockedPeriodNs(0.3, 15.0);
  TraceCollector collector(design, period, 7);
  const std::uint64_t cycles = multiWindowCycles(7, 45);
  const auto fold = [](oisa::core::ErrorCombination& combo,
                       std::span<const oisa::predict::TraceRecord> records) {
    for (const auto& rec : records) {
      combo.add({rec.diamondValue(32), rec.goldValue(32),
                 rec.silverValue(32)});
    }
  };
  oisa::core::ErrorCombination collected;
  auto wl = oisa::experiments::makeWorkload("uniform", 32, 62);
  fold(collected, collector.collect(*wl, cycles));

  oisa::core::ErrorCombination streamed;
  std::vector<std::size_t> windows;
  wl = oisa::experiments::makeWorkload("uniform", 32, 62);
  collector.stream(*wl, cycles,
                   [&](std::span<const oisa::predict::TraceRecord> window) {
                     windows.push_back(window.size());
                     fold(streamed, window);
                   });
  const std::size_t full = 7 * TraceCollector::kWindowSteps;
  EXPECT_EQ(windows, (std::vector<std::size_t>{full, full, full, 45}));
  EXPECT_EQ(streamed.cycles(), cycles);
  EXPECT_EQ(streamed.skippedRelative(), collected.skippedRelative());
  expectStatsEqual(streamed.arithStruct(), collected.arithStruct());
  expectStatsEqual(streamed.arithTiming(), collected.arithTiming());
  expectStatsEqual(streamed.arithJoint(), collected.arithJoint());
  expectStatsEqual(streamed.relStruct(), collected.relStruct());
  expectStatsEqual(streamed.relTiming(), collected.relTiming());
  expectStatsEqual(streamed.relJoint(), collected.relJoint());
  EXPECT_GT(streamed.arithTiming().errorRate(), 0.0);
}

TEST(LaneTraceCollectorTest, InterleavedStreamsMatchPerStreamReferences) {
  // Draw kS + l is stream l's k-th stimulus: a 64-stream run is 64
  // sequential collects over the interleaved draws, whatever its window
  // split — fewer cycles than streams, a ragged count, and three 64-lane
  // windows plus a tail, at history depth 2 and deeper.
  const auto shallow = testDesign(8, 2, 1, 4);
  const double shallowPeriod =
      oisa::experiments::overclockedPeriodNs(0.3, 15.0);
  const auto deep = testDesign(8, 0, 0, 4);
  const double deepPeriod = deep.criticalDelayNs * 0.35;
  const std::uint64_t multiWindow = multiWindowCycles(64, 197);
  struct Case {
    const SynthesizedDesign* design;
    double period;
    const char* kind;
    std::uint64_t cycles;
    std::size_t maxLanes;
  };
  for (const Case& c : {Case{&shallow, shallowPeriod, "uniform", 10, 0},
                        Case{&shallow, shallowPeriod, "random-walk", 197, 0},
                        Case{&shallow, shallowPeriod, "uniform", multiWindow,
                             64},
                        Case{&deep, deepPeriod, "uniform", 10, 0},
                        Case{&deep, deepPeriod, "uniform", 197, 0},
                        Case{&deep, deepPeriod, "random-walk", multiWindow,
                             64}}) {
    SCOPED_TRACE(std::string(c.kind) + ", " + std::to_string(c.cycles) +
                 " cycles, max lanes " + std::to_string(c.maxLanes));
    TraceCollector collector(*c.design, c.period, c.maxLanes, 64);
    if (c.design == &deep) {
      ASSERT_GE(collector.historyDepth(), 3);
    } else {
      ASSERT_EQ(collector.historyDepth(), 2);
    }
    expectStreamsMatchScalar(collector, *c.design, 64, c.kind, 29, c.cycles);
  }
}

TEST(LaneTraceCollectorTest, ClampedDefectHoldsInEveryWindow) {
  // A stem defect passed at construction must hold in every window: the
  // run split over 64-lane windows equals the same run at full width, and
  // every window shows the defect.
  const auto design = testDesign(8, 2, 1, 4);
  const double period = oisa::experiments::overclockedPeriodNs(0.3, 15.0);
  const oisa::fault::FaultUniverse universe(
      CompiledNetlist::compile(design.netlist));
  std::vector<oisa::fault::Fault> stems;
  for (const auto& f : universe.collapsed()) {
    if (f.isStem()) stems.push_back(f);
  }
  const auto sample = oisa::fault::selectTimedFaults(stems, 8);
  ASSERT_EQ(sample.size(), 8u);
  const std::uint64_t cycles = multiWindowCycles(64, 197);
  const auto collectAt = [&](std::size_t maxLanes, bool clamp) {
    TraceCollector collector(
        design, period, maxLanes, 64,
        clamp ? std::optional(sample[4]) : std::nullopt);
    auto wl = oisa::experiments::makeWorkload("uniform", 32, 41);
    return collector.collect(*wl, cycles);
  };
  const auto windowed = collectAt(64, true);
  expectTracesEqual(windowed, collectAt(0, true));
  const auto healthy = collectAt(0, false);
  const std::size_t window = 64 * TraceCollector::kWindowSteps;
  for (std::size_t first = 0; first < cycles; first += window) {
    const std::size_t end = std::min<std::size_t>(cycles, first + window);
    std::size_t differ = 0;
    for (std::size_t t = first; t < end; ++t) {
      differ += windowed[t].silver != healthy[t].silver ||
                windowed[t].silverCout != healthy[t].silverCout;
    }
    EXPECT_GT(differ, 0u) << "window at record " << first;
  }
}

TEST(LaneTraceCollectorTest, HeldDefectLeavesGoldFaultFree) {
  // Gold is the design settled with no defect held: under each sampled
  // stem defect, every record of a 64-stream multi-window run carries the
  // behavioral sum, while silver shows the defect.
  const auto design = testDesign(8, 2, 1, 4);
  const double period = oisa::experiments::overclockedPeriodNs(0.3, 15.0);
  const oisa::core::IsaAdder behavioral(design.config);
  const oisa::fault::FaultUniverse universe(
      CompiledNetlist::compile(design.netlist));
  std::vector<oisa::fault::Fault> stems;
  for (const auto& f : universe.collapsed()) {
    if (f.isStem()) stems.push_back(f);
  }
  const std::uint64_t cycles = multiWindowCycles(64, 197);
  for (const auto& defect : oisa::fault::selectTimedFaults(stems, 4)) {
    SCOPED_TRACE("net " + std::to_string(defect.net));
    TraceCollector collector(design, period, 64, 64, defect);
    auto wl = oisa::experiments::makeWorkload("uniform", 32, 43);
    const auto trace = collector.collect(*wl, cycles);
    std::size_t shifted = 0;
    for (std::size_t r = 0; r < trace.size(); ++r) {
      const auto& rec = trace[r];
      const oisa::core::IsaSum gold =
          behavioral.add(rec.a, rec.b, rec.carryIn);
      ASSERT_EQ(rec.gold, gold.sum) << "record " << r;
      ASSERT_EQ(rec.goldCout, gold.carryOut) << "record " << r;
      shifted += rec.silver != rec.gold || rec.silverCout != rec.goldCout;
    }
    EXPECT_GT(shifted, 0u);
  }
}

/// Paper design `i`'s config over the netlist and delays of the design six
/// places along the list (all twelve are 32-bit adders; the 8-bit-block
/// designs pair with the 16-bit-block ones, the 16-bit no-speculation
/// design with the exact adder): a netlist on the adder port convention
/// that does not compute the design it is collected as.
SynthesizedDesign withForeignNetlist(
    const std::vector<SynthesizedDesign>& designs, std::size_t i) {
  SynthesizedDesign broken = designs[(i + 6) % designs.size()];
  broken.config = designs[i].config;
  return broken;
}

TEST(LaneTraceCollectorTest, BrokenNetlistFailsLoudly) {
  // The behavioral adder checks gold on every 64th record of every run, so
  // a netlist that no longer computes its design fails the collect with
  // Internal, naming the design, instead of shifting the timing errors.
  oisa::circuits::SynthesisOptions options;
  options.relaxSlack = true;
  const auto designs = oisa::circuits::synthesizePaperDesigns(
      CellLibrary::generic65(), options);
  ASSERT_EQ(designs.size(), 12u);
  const double period = oisa::experiments::overclockedPeriodNs(0.3, 15.0);
  for (std::size_t i = 0; i < designs.size(); ++i) {
    SCOPED_TRACE(designs[i].config.name());
    const SynthesizedDesign broken = withForeignNetlist(designs, i);
    TraceCollector collector(broken, period);
    auto wl = oisa::experiments::makeWorkload("uniform",
                                              broken.config.width, 42);
    try {
      (void)collector.collect(*wl, 4096);
      ADD_FAILURE() << "the broken netlist was collected";
    } catch (const oisa::core::StatusError& e) {
      EXPECT_EQ(e.code(), oisa::core::StatusCode::Internal) << e.what();
      EXPECT_NE(std::string(e.what()).find("'" + broken.config.name() + "'"),
                std::string::npos)
          << e.what();
    }
  }

  // In a campaign over one healthy design and the twelve broken ones, each
  // broken design's cell fails with that Internal status and commits no
  // row; the healthy design's cell still does.
  std::vector<SynthesizedDesign> campaign = {designs[0]};
  for (std::size_t i = 0; i < designs.size(); ++i) {
    campaign.push_back(withForeignNetlist(designs, i));
  }
  const std::string path =
      ::testing::TempDir() + "oisa_broken_netlist_ckpt.bin";
  std::remove(path.c_str());
  oisa::experiments::RunOptions run;
  run.cycles = 4096;
  run.threads = 2;
  run.checkpoint.path = path;
  run.checkpoint.everyCells = 1;
  const std::vector<double> cprs = {15.0};
  try {
    (void)oisa::experiments::runErrorCombination(campaign, cprs, run);
    ADD_FAILURE() << "the campaign over broken netlists succeeded";
  } catch (const oisa::experiments::GridError& e) {
    ASSERT_EQ(e.failures().size(), designs.size());
    for (const auto& failure : e.failures()) {
      ASSERT_GE(failure.cell, 1u);
      ASSERT_LT(failure.cell, campaign.size());
      EXPECT_EQ(failure.status.code(), oisa::core::StatusCode::Internal);
      EXPECT_NE(failure.status.message().find(
                    "'" + campaign[failure.cell].config.name() + "'"),
                std::string::npos)
          << failure.status.message();
    }
  }
  const auto snapshot = oisa::experiments::GridCheckpoint::loadFrom(path);
  ASSERT_TRUE(snapshot.isOk()) << snapshot.status().toString();
  EXPECT_EQ(snapshot.value().completedCells(), 1u);
  EXPECT_NE(snapshot.value().payload(0), nullptr);
  std::remove(path.c_str());
}

TEST(LaneTraceCollectorTest, Width64DesignMatchesScalarReference) {
  // A 64-bit adder has no spare row for its carry-out in a 64x64
  // transpose: the sum words transpose, the carry-out is read from its own
  // word. History depth 2 and 3, one window, and runs across several
  // windows.
  oisa::circuits::SynthesisOptions options;
  options.relaxSlack = true;
  const auto design = oisa::circuits::synthesize(
      oisa::core::makeIsa(8, 2, 1, 4, 64), CellLibrary::generic65(), options);
  for (const auto& [fraction, history] :
       {std::pair{0.6, 2}, std::pair{0.45, 3}}) {
    const double period = design.criticalDelayNs * fraction;
    for (const std::uint64_t cycles :
         {std::uint64_t{5}, std::uint64_t{700}, std::uint64_t{1355}}) {
      SCOPED_TRACE("history " + std::to_string(history) + ", " +
                   std::to_string(cycles) + " cycles");
      TraceCollector collector(design, period, 7);
      ASSERT_EQ(collector.historyDepth(), history);
      auto scalarWl = oisa::experiments::makeWorkload("uniform", 64, 87);
      auto laneWl = oisa::experiments::makeWorkload("uniform", 64, 87);
      expectTracesEqual(collector.collect(*laneWl, cycles),
                        oisa::experiments::collectTraceScalar(
                            design, period, *scalarWl, cycles));
    }
  }
}

TEST(LaneTraceCollectorTest, RejectsDesignsOffTheAdderPortConvention) {
  // A 32-bit adder's config over the c17 netlist (5 inputs, 2 outputs):
  // refused at construction, naming the design and the counts.
  auto design = testDesign(8, 2, 1, 4);
  design.netlist =
      oisa::netlist::readBenchString(oisa::testing::kC17, "c17").valueOrThrow();
  design.delays = DelayAnnotation(design.netlist, CellLibrary::generic65());
  try {
    TraceCollector collector(design, 0.3);
    FAIL() << "the c17 netlist was accepted";
  } catch (const oisa::core::StatusError& e) {
    EXPECT_EQ(e.code(), oisa::core::StatusCode::InvalidInput);
    const std::string message = e.what();
    EXPECT_NE(message.find(design.config.name()), std::string::npos)
        << message;
    EXPECT_NE(message.find("expected 65 inputs and 33 outputs, got 5 and 2"),
              std::string::npos)
        << message;
  }
}

/// Constructs a collector and returns the InvalidInput message it throws
/// (fails the test when it throws nothing or another code).
std::string invalidInputMessage(const std::function<void()>& construct) {
  try {
    construct();
  } catch (const oisa::core::StatusError& e) {
    EXPECT_EQ(e.code(), oisa::core::StatusCode::InvalidInput) << e.what();
    return e.what();
  }
  ADD_FAILURE() << "construction succeeded";
  return {};
}

TEST(LaneTraceCollectorTest, RejectsBranchFaultDefect) {
  // Only a stem fault holds a whole net; a pin-level branch fault passed
  // as a defect is refused, naming the design.
  const auto design = testDesign(8, 2, 1, 4);
  const oisa::fault::FaultUniverse universe(
      CompiledNetlist::compile(design.netlist));
  const auto branch =
      std::find_if(universe.all().begin(), universe.all().end(),
                   [](const oisa::fault::Fault& f) { return !f.isStem(); });
  ASSERT_NE(branch, universe.all().end());
  const std::string message = invalidInputMessage([&] {
    TraceCollector collector(design, 0.255, 0, 64, *branch);
  });
  EXPECT_NE(message.find(design.config.name()), std::string::npos)
      << message;
  EXPECT_NE(message.find("stem fault"), std::string::npos) << message;
  // An out-of-range stem is refused the same way.
  const std::string range = invalidInputMessage([&] {
    TraceCollector collector(
        design, 0.255, 0, 64,
        oisa::fault::Fault{static_cast<std::uint32_t>(
                               design.netlist.netCount()),
                           oisa::fault::Fault::kStem,
                           oisa::fault::StuckAt::SA1});
  });
  EXPECT_NE(range.find(design.config.name()), std::string::npos) << range;
}

TEST(LaneTraceCollectorTest, ReusedCollectorCountsEveryCollect) {
  // The sampled-record counter of two collects through one collector
  // equals that of the same collects through two fresh ones.
  const auto design = testDesign(8, 2, 1, 4);
  const double period = oisa::experiments::overclockedPeriodNs(0.3, 15.0);
  const auto& records = oisa::obs::counter("sim.records_sampled");
  const auto counted = [&](TraceCollector& train, TraceCollector& test) {
    const std::uint64_t r0 = records.value();
    auto trainWl = oisa::experiments::makeWorkload("uniform", 32, 1);
    (void)train.collect(*trainWl, 6000);
    auto testWl = oisa::experiments::makeWorkload("uniform", 32, 2);
    (void)test.collect(*testWl, 3000);
    return records.value() - r0;
  };
  TraceCollector reused(design, period);
  const auto reusedCounts = counted(reused, reused);
  TraceCollector train(design, period);
  TraceCollector test(design, period);
  const auto freshCounts = counted(train, test);
  EXPECT_GT(freshCounts, 0u);
  EXPECT_EQ(reusedCounts, freshCounts);
}

// ---------------------------------------------------------------------------
// Shared compiled substrate.
// ---------------------------------------------------------------------------

TEST(CompiledNetlistTest, OneCompileServesAllEngines) {
  const auto cfg = oisa::core::makeIsa(8, 2, 1, 4);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const DelayAnnotation delays(nl, CellLibrary::generic65());
  const auto compiled = CompiledNetlist::compile(nl);

  // Functional engine from the shared compile == private compile.
  const oisa::netlist::BatchEvaluator shared(compiled);
  const oisa::netlist::BatchEvaluator privat(nl);
  std::mt19937_64 rng(8);
  std::vector<std::uint64_t> in(nl.primaryInputs().size());
  for (auto& w : in) w = rng();
  EXPECT_EQ(shared.evaluateOutputs(in), privat.evaluateOutputs(in));

  // The wheel from the shared compile agrees with a Netlist-constructed
  // one (spot check one overclocked cycle).
  LaneTimedSimulator fromCompile(compiled, delays);
  LaneTimedSimulator fromNetlist(nl, delays);
  for (auto& w : in) w = rng();
  fromCompile.applyInputs(in);
  fromNetlist.applyInputs(in);
  fromCompile.advancePs(255);
  fromNetlist.advancePs(255);
  EXPECT_EQ(fromCompile.sampleOutputs(), fromNetlist.sampleOutputs());
  EXPECT_EQ(fromCompile.eventsProcessed(), fromNetlist.eventsProcessed());
}

}  // namespace

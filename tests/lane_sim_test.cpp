// Differential tests of the 64-lane timed engine (LaneTimedSimulator) and
// the lane-parallel trace collector against their scalar references. The
// lane engine must match 64 independent scalar TimedSimulator runs
// bit-exactly — per-cycle sampled outputs, settle behavior, final net
// state — on random netlists, all twelve paper design points and a deep
// ripple-carry chain; the lane TraceCollector must reproduce the sequential
// collector record for record at any lane count, including deep
// overclocks that need chunk warm-up cycles. Also covers the shared
// CompiledNetlist substrate and the bounded-event-budget guard against
// non-settling/cyclic netlists.
#include <gtest/gtest.h>

#include <array>
#include <random>
#include <stdexcept>

#include "circuits/adder_topologies.h"
#include "circuits/isa_netlist.h"
#include "circuits/synthesis.h"
#include "core/error_model.h"
#include "core/status.h"
#include "core/isa_config.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"
#include "fault/fault_universe.h"
#include "fault/timed_fault.h"
#include "netlist/batch_evaluator.h"
#include "netlist/bench_io.h"
#include "netlist/compiled_netlist.h"
#include "netlist/gate.h"
#include "obs/metrics.h"
#include "reference/scalar_collector.h"
#include "timing/cell_library.h"
#include "timing/delay_annotation.h"
#include "timing/event_sim.h"
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
using oisa::timing::LaneTimedSimulator;
using oisa::timing::TimedSimulator;
using oisa::timing::TimePs;

constexpr std::size_t kLanes = LaneTimedSimulator::kLanes;

using oisa::testing::expectStreamsMatchScalar;
using oisa::testing::expectTracesEqual;
using oisa::testing::randomNetlist;
using oisa::testing::unitLibrary;

/// Drives one LaneTimedSimulator and 64 scalar TimedSimulators (sharing
/// the lane engine's compile) through `cycles` clocked cycles of random
/// stimulus and asserts exact per-lane agreement: every sampled output
/// every cycle, the final settle, and every net word.
void expectLaneMatchesScalars(const Netlist& nl, const DelayAnnotation& delays,
                              TimePs periodPs, int cycles,
                              std::uint64_t stimulusSeed) {
  const auto compiled = CompiledNetlist::compile(nl);
  LaneTimedSimulator lane(compiled, delays);
  std::vector<TimedSimulator> scalars;
  scalars.reserve(kLanes);
  for (std::size_t L = 0; L < kLanes; ++L) {
    scalars.emplace_back(compiled, delays);
  }

  std::mt19937_64 rng(stimulusSeed);
  const std::size_t inputs = nl.primaryInputs().size();
  const std::size_t outputs = nl.primaryOutputs().size();
  std::vector<std::uint64_t> inWords(inputs);
  std::vector<std::uint8_t> scalarIn(inputs);
  std::vector<std::uint64_t> laneOut;
  std::vector<std::uint8_t> scalarOut;

  const auto applyAll = [&] {
    for (auto& w : inWords) w = rng();
    lane.applyInputs(inWords);
    for (std::size_t L = 0; L < kLanes; ++L) {
      for (std::size_t i = 0; i < inputs; ++i) {
        scalarIn[i] = static_cast<std::uint8_t>((inWords[i] >> L) & 1u);
      }
      scalars[L].applyInputs(scalarIn);
    }
  };

  // Settled reset vector, then overclocked cycles.
  applyAll();
  (void)lane.settlePs();
  for (auto& s : scalars) (void)s.settlePs();

  for (int t = 0; t < cycles; ++t) {
    applyAll();
    lane.advancePs(periodPs);
    lane.sampleOutputsInto(laneOut);
    for (std::size_t L = 0; L < kLanes; ++L) {
      scalars[L].advancePs(periodPs);
      scalars[L].sampleOutputsInto(scalarOut);
      for (std::size_t o = 0; o < outputs; ++o) {
        ASSERT_EQ((laneOut[o] >> L) & 1u,
                  static_cast<std::uint64_t>(scalarOut[o]))
            << "cycle " << t << " lane " << L << " output " << o;
      }
    }
  }

  // Full settle must agree lane for lane too (quiescent state check).
  (void)lane.settlePs();
  for (std::size_t L = 0; L < kLanes; ++L) {
    (void)scalars[L].settlePs();
    for (std::uint32_t n = 0; n < nl.netCount(); ++n) {
      ASSERT_EQ((lane.netWord(NetId{n}) >> L) & 1u,
                static_cast<std::uint64_t>(scalars[L].netValue(NetId{n})))
          << "net " << n << " lane " << L;
    }
  }
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
      expectLaneMatchesScalars(nl, delays, period, 30,
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
      expectLaneMatchesScalars(design.netlist, design.delays, period, 15, 7);
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
    expectLaneMatchesScalars(nl, delays, period, 20, 11);
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
        const auto lane =
            oisa::experiments::collectTrace(design, period, *laneWl, cycles);
        expectTracesEqual(lane, scalar);
      }
    }
  }
}

TEST(LaneTraceCollectorTest, MatchesScalarOnDeepOverclockWithWarmUp) {
  // Period far below half the critical path: chunk replay needs real
  // warm-up cycles for bit-exactness (warmUpCycles() >= 1).
  const auto design = testDesign(8, 0, 0, 4);
  const double period = design.criticalDelayNs * 0.35;
  oisa::experiments::TraceCollector collector(design, period);
  ASSERT_GE(collector.warmUpCycles(), 1);

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
  // Every window's head chunk warms up on stimuli carried over from the
  // previous window, on five lanes and on one.
  const auto design = testDesign(8, 0, 0, 4);
  const double period = design.criticalDelayNs * 0.35;
  const std::uint64_t cycles = multiWindowCycles(5, 37);
  auto scalarWl = oisa::experiments::makeWorkload("random-walk", 32, 17);
  const auto scalar = oisa::experiments::collectTraceScalar(
      design, period, *scalarWl, cycles);
  for (const std::size_t lanes : {5, 1}) {
    SCOPED_TRACE("max lanes " + std::to_string(lanes));
    TraceCollector collector(design, period, lanes);
    ASSERT_GE(collector.warmUpCycles(), 1);
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
  // and chunk split — fewer cycles than streams, a ragged count, and three
  // 64-lane windows plus a tail, with and without warm-up.
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
      ASSERT_GE(collector.warmUpCycles(), 1);
    } else {
      ASSERT_EQ(collector.warmUpCycles(), 0);
    }
    expectStreamsMatchScalar(collector, *c.design, 64, c.kind, 29, c.cycles);
  }
}

TEST(LaneTraceCollectorTest, ClampedDefectHoldsInEveryWindow) {
  // A stem defect clamped once through simulator() must survive the reset
  // every window starts with: the run split over 64-lane windows equals
  // the same run at full width, and every window shows the defect.
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
    TraceCollector collector(design, period, maxLanes, 64);
    if (clamp) oisa::fault::injectStuckAt(collector.simulator(), sample[4]);
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

TEST(LaneTraceCollectorTest, Width64DesignMatchesScalarReference) {
  // A 64-bit adder has no spare row for its carry-out in a 64x64
  // transpose: the sum words transpose, the carry-out is read from its own
  // word. Warm-up 0 and 1, one window, and runs across several windows.
  oisa::circuits::SynthesisOptions options;
  options.relaxSlack = true;
  const auto design = oisa::circuits::synthesize(
      oisa::core::makeIsa(8, 2, 1, 4, 64), CellLibrary::generic65(), options);
  for (const auto& [fraction, warmUp] :
       {std::pair{0.6, 0}, std::pair{0.45, 1}}) {
    const double period = design.criticalDelayNs * fraction;
    for (const std::uint64_t cycles :
         {std::uint64_t{5}, std::uint64_t{700}, std::uint64_t{1355}}) {
      SCOPED_TRACE("warm-up " + std::to_string(warmUp) + ", " +
                   std::to_string(cycles) + " cycles");
      TraceCollector collector(design, period, 7);
      ASSERT_EQ(collector.warmUpCycles(), warmUp);
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
  design.netlist = oisa::netlist::readBenchString(oisa::testing::kC17, "c17");
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

TEST(LaneTraceCollectorTest, ReusedCollectorCountsEveryCollect) {
  // Engine counters of two collects through one collector equal those of
  // the same collects through two fresh ones.
  const auto design = testDesign(8, 2, 1, 4);
  const double period = oisa::experiments::overclockedPeriodNs(0.3, 15.0);
  const auto& events = oisa::obs::counter("sim.events_committed");
  const auto& transitions = oisa::obs::counter("sim.lane_transitions");
  const auto counted = [&](TraceCollector& train, TraceCollector& test) {
    const std::uint64_t e0 = events.value();
    const std::uint64_t t0 = transitions.value();
    auto trainWl = oisa::experiments::makeWorkload("uniform", 32, 1);
    (void)train.collect(*trainWl, 6000);
    auto testWl = oisa::experiments::makeWorkload("uniform", 32, 2);
    (void)test.collect(*testWl, 3000);
    return std::pair{events.value() - e0, transitions.value() - t0};
  };
  TraceCollector reused(design, period);
  const auto reusedCounts = counted(reused, reused);
  TraceCollector train(design, period);
  TraceCollector test(design, period);
  const auto freshCounts = counted(train, test);
  EXPECT_GT(freshCounts.first, 0u);
  EXPECT_GT(freshCounts.second, 0u);
  EXPECT_EQ(reusedCounts, freshCounts);
}

TEST(LaneTraceCollectorTest, PackedEmissionMatchesPackTrace) {
  const auto design = testDesign(8, 2, 1, 4);
  const double period = oisa::experiments::overclockedPeriodNs(0.3, 15.0);
  oisa::experiments::TraceCollector collector(design, period);
  const oisa::predict::FeatureExtractor extractor(32);
  auto wl = oisa::experiments::makeWorkload("uniform", 32, 3);
  const auto collected = collector.collectPacked(*wl, 130, extractor);
  const auto reference = extractor.packTrace(collected.trace);
  EXPECT_EQ(collected.packed.rowCount, reference.rowCount);
  EXPECT_EQ(collected.packed.shared, reference.shared);
  EXPECT_EQ(collected.packed.goldPrev, reference.goldPrev);
  EXPECT_EQ(collected.packed.goldCur, reference.goldCur);
  EXPECT_EQ(collected.packed.labels, reference.labels);
}

// ---------------------------------------------------------------------------
// Shared compiled substrate.
// ---------------------------------------------------------------------------

TEST(CompiledNetlistTest, OneCompileServesAllEngines) {
  const auto cfg = oisa::core::makeIsa(8, 2, 1, 4);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const DelayAnnotation delays(nl, CellLibrary::generic65());
  const auto compiled = CompiledNetlist::compile(nl);
  ASSERT_TRUE(compiled->acyclic());

  // Functional engine from the shared compile == private compile.
  const oisa::netlist::BatchEvaluator shared(compiled);
  const oisa::netlist::BatchEvaluator privat(nl);
  std::mt19937_64 rng(8);
  std::vector<std::uint64_t> in(nl.primaryInputs().size());
  for (auto& w : in) w = rng();
  EXPECT_EQ(shared.evaluateOutputs(in), privat.evaluateOutputs(in));

  // Timed engines from the shared compile agree with Netlist-constructed
  // ones (spot check one overclocked cycle).
  TimedSimulator fromCompile(compiled, delays);
  TimedSimulator fromNetlist(nl, delays);
  std::vector<std::uint8_t> bits(nl.primaryInputs().size());
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  fromCompile.applyInputs(bits);
  fromNetlist.applyInputs(bits);
  fromCompile.advancePs(255);
  fromNetlist.advancePs(255);
  EXPECT_EQ(fromCompile.sampleOutputs(), fromNetlist.sampleOutputs());
  EXPECT_EQ(fromCompile.eventsProcessed(), fromNetlist.eventsProcessed());
}

// ---------------------------------------------------------------------------
// Non-settling / cyclic netlist guard.
// ---------------------------------------------------------------------------

/// NAND-gated ring oscillator: en=0 holds the loop stable, en=1 makes it
/// oscillate forever. Built with the rewiring primitive (the builder API
/// alone cannot create cycles).
Netlist ringOscillator() {
  Netlist nl("osc");
  const NetId en = nl.input("en");
  const NetId n1 = nl.gate2(GateKind::Nand2, en, en);  // pin 1 rewired below
  const NetId n2 = nl.gate1(GateKind::Buf, n1);
  const NetId n3 = nl.gate1(GateKind::Buf, n2);
  nl.output("y", n3);
  nl.replaceGateInput(GateId{0}, 1, n3);  // close the loop
  return nl;
}

TEST(EventBudgetTest, CyclicNetlistIsDetectedNotLoopedOn) {
  const Netlist nl = ringOscillator();
  EXPECT_THROW(nl.validate(), std::runtime_error);
  const auto compiled = CompiledNetlist::compile(nl);
  EXPECT_FALSE(compiled->acyclic());
  // Functional evaluation requires an order and must refuse.
  EXPECT_THROW(oisa::netlist::BatchEvaluator{compiled}, std::runtime_error);

  const DelayAnnotation delays(nl, unitLibrary());
  TimedSimulator sim(compiled, delays);
  sim.setEventBudget(20000);
  // Stable configuration settles fine — the guard must not false-positive
  // — and converges to the *logic-consistent* quiescent state, not the
  // raw all-zero power-up values: with en=0, NAND(0, x) = 1 must
  // propagate around the loop to the output.
  sim.applyInputs(std::vector<std::uint8_t>{0});
  EXPECT_NO_THROW((void)sim.settlePs());
  EXPECT_EQ(sim.sampleOutputs(), std::vector<std::uint8_t>{1});
  // Enabled oscillator: settle must throw the diagnostic, not hang.
  sim.applyInputs(std::vector<std::uint8_t>{1});
  EXPECT_THROW((void)sim.settlePs(), std::runtime_error);
  // Bounded advance is guarded too, and reset() recovers the simulator.
  sim.reset();
  sim.applyInputs(std::vector<std::uint8_t>{1});
  EXPECT_THROW(sim.advancePs(TimePs{1} << 40), std::runtime_error);
  sim.reset();
  sim.applyInputs(std::vector<std::uint8_t>{0});
  EXPECT_NO_THROW((void)sim.settlePs());
}

TEST(EventBudgetTest, LaneEngineGuardsCyclicNetlistsToo) {
  const Netlist nl = ringOscillator();
  const DelayAnnotation delays(nl, unitLibrary());
  LaneTimedSimulator sim(nl, delays);
  sim.setEventBudget(20000);
  sim.applyInputs(std::vector<std::uint64_t>{0});
  EXPECT_NO_THROW((void)sim.settlePs());
  EXPECT_EQ(sim.sampleOutputs(), std::vector<std::uint64_t>{~std::uint64_t{0}});
  // Oscillate in a single lane: the shared-word engine must still detect.
  sim.applyInputs(std::vector<std::uint64_t>{std::uint64_t{1} << 17});
  EXPECT_THROW((void)sim.settlePs(), std::runtime_error);
  sim.reset();
  sim.applyInputs(std::vector<std::uint64_t>{0});
  EXPECT_NO_THROW((void)sim.settlePs());
}

TEST(EventBudgetTest, BudgetIsPerCallNotCumulative) {
  // A legitimate long run must never trip the guard: total committed
  // events exceed the per-call budget many times over, but each advance
  // stays far below it.
  const auto cfg = oisa::core::makeIsa(8, 2, 1, 4);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const DelayAnnotation delays(nl, CellLibrary::generic65());
  TimedSimulator sim(nl, delays);
  sim.setEventBudget(5000);  // ~10 cycles' worth of events
  std::mt19937_64 rng(2);
  for (int t = 0; t < 200; ++t) {
    sim.applyInputs(oisa::circuits::packOperands(rng(), rng(), false, 32));
    EXPECT_NO_THROW(sim.advancePs(255));
  }
  EXPECT_GT(sim.eventsProcessed(), 5000u);
  // The natural "unlimited" spelling must not wrap the per-call cap into
  // an instant spurious throw (saturating arithmetic).
  sim.setEventBudget(~std::uint64_t{0});
  sim.applyInputs(oisa::circuits::packOperands(rng(), rng(), false, 32));
  EXPECT_NO_THROW((void)sim.settlePs());
}

}  // namespace

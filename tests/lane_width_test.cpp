// The wide-lane proof suite: every LaneSelection this build + CPU can
// instantiate (64-lane reference, portable 256/512, AVX2 256, AVX-512
// 512) is driven against the 64-lane reference engines through the
// differential harness and must agree bit-for-bit — functional
// (BatchEvaluator), timed (LaneClockedSampler, including forceNet stuck
// clamps), and PPSFP fault detection — on random DAGs, all twelve paper
// design points and the ISCAS-85 c17 benchmark. On top of the engine
// slices, the consumer invariants: TraceCollector traces (over runs
// spanning several windows, against the sequential reference) and
// fault-coverage campaign results are pure functions of the stimulus
// stream, identical at every forced width. Also pins down the
// OISA_FORCE_LANE_WIDTH parsing/dispatch contract.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuits/synthesis.h"
#include "core/error_model.h"
#include "core/isa_config.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"
#include "fault/coverage.h"
#include "fault/fault_universe.h"
#include "fault/ppsfp_dispatch.h"
#include "fault/timed_fault.h"
#include "netlist/bench_io.h"
#include "netlist/compiled_netlist.h"
#include "netlist/lane_width.h"
#include "reference/scalar_collector.h"
#include "timing/cell_library.h"
#include "timing/delay_annotation.h"
#include "timing/lane_dispatch.h"
#include "timing/sta.h"

#include "differential_harness.h"

namespace {

using oisa::netlist::CompiledNetlist;
using oisa::netlist::LaneArch;
using oisa::netlist::LaneSelection;
using oisa::netlist::Netlist;
using oisa::timing::CellLibrary;
using oisa::timing::DelayAnnotation;
using oisa::testing::kC17;
using oisa::testing::randomNetlist;
using oisa::testing::unitLibrary;

constexpr LaneSelection kReference{64, LaneArch::Portable};

/// The OISA_FORCE_LANE_WIDTH spelling that forces exactly `sel`.
std::string specFor(LaneSelection sel) {
  if (sel.width == 64) return "64";
  if (sel.arch == LaneArch::Portable) {
    return "portable" + std::to_string(sel.width);
  }
  return std::to_string(sel.width);
}

/// Temporarily pins OISA_FORCE_LANE_WIDTH, restoring on destruction.
class ScopedLaneWidth {
 public:
  explicit ScopedLaneWidth(const std::string& spec) {
    const char* old = std::getenv(oisa::netlist::kLaneWidthEnvVar);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    ::setenv(oisa::netlist::kLaneWidthEnvVar, spec.c_str(), 1);
  }
  ~ScopedLaneWidth() {
    if (had_) {
      ::setenv(oisa::netlist::kLaneWidthEnvVar, saved_.c_str(), 1);
    } else {
      ::unsetenv(oisa::netlist::kLaneWidthEnvVar);
    }
  }
  ScopedLaneWidth(const ScopedLaneWidth&) = delete;
  ScopedLaneWidth& operator=(const ScopedLaneWidth&) = delete;

 private:
  std::string saved_;
  bool had_ = false;
};

/// Every variant except the 64-lane reference itself.
std::vector<LaneSelection> wideSelections() {
  std::vector<LaneSelection> wide;
  for (const LaneSelection sel : oisa::netlist::availableLaneSelections()) {
    if (!(sel == kReference)) wide.push_back(sel);
  }
  return wide;
}

// ---------------------------------------------------------------------------
// Dispatch contract.
// ---------------------------------------------------------------------------

TEST(LaneWidthTest, AvailableSelectionsAreWellFormed) {
  const auto available = oisa::netlist::availableLaneSelections();
  ASSERT_FALSE(available.empty());
  EXPECT_TRUE(available.front() == kReference)
      << "the 64-lane reference must always be element 0";
  for (const LaneSelection sel : available) {
    EXPECT_EQ(sel.width % 64, 0u);
    EXPECT_EQ(sel.wordsPerNet(), sel.width / 64);
    EXPECT_TRUE(oisa::netlist::cpuSupportsLaneArch(sel.arch))
        << oisa::netlist::laneSelectionName(sel);
  }
  // The default is always instantiable, and never a wide portable variant
  // (strictly more work per sweep than the reference without vector
  // units).
  const LaneSelection def = oisa::netlist::defaultLaneSelection();
  bool found = false;
  for (const LaneSelection sel : available) found = found || sel == def;
  EXPECT_TRUE(found);
  if (def.arch == LaneArch::Portable) EXPECT_EQ(def.width, 64u);
}

TEST(LaneWidthTest, ParseLaneWidthSpecContract) {
  using oisa::netlist::parseLaneWidthSpec;
  EXPECT_TRUE(parseLaneWidthSpec("64") == kReference);
  EXPECT_TRUE(parseLaneWidthSpec("portable") ==
              (LaneSelection{256, LaneArch::Portable}));
  EXPECT_TRUE(parseLaneWidthSpec("portable256") ==
              (LaneSelection{256, LaneArch::Portable}));
  EXPECT_TRUE(parseLaneWidthSpec("portable512") ==
              (LaneSelection{512, LaneArch::Portable}));
  // Forced 256/512 take the vector unit when this build + CPU has it and
  // degrade to the portable flavor otherwise — never a failure.
  const LaneSelection s256 = parseLaneWidthSpec("256");
  EXPECT_EQ(s256.width, 256u);
  EXPECT_TRUE(oisa::netlist::cpuSupportsLaneArch(s256.arch));
  const LaneSelection s512 = parseLaneWidthSpec("512");
  EXPECT_EQ(s512.width, 512u);
  EXPECT_TRUE(oisa::netlist::cpuSupportsLaneArch(s512.arch));
  for (const char* bad : {"", "128", "65", "avx2", "64 ", "wide"}) {
    EXPECT_THROW((void)parseLaneWidthSpec(bad), std::invalid_argument)
        << "spec '" << bad << "'";
  }
}

TEST(LaneWidthTest, EnvOverrideIsReadPerCall) {
  for (const LaneSelection sel : oisa::netlist::availableLaneSelections()) {
    ScopedLaneWidth env(specFor(sel));
    EXPECT_TRUE(oisa::netlist::selectLaneWidth() == sel)
        << oisa::netlist::laneSelectionName(sel);
  }
  {
    ScopedLaneWidth env("this-is-not-a-width");
    EXPECT_THROW((void)oisa::netlist::selectLaneWidth(),
                 std::invalid_argument);
  }
}

TEST(LaneWidthTest, EnginesReportTheirSelection) {
  std::mt19937_64 rng(77);
  const Netlist nl = randomNetlist(rng, 8, 30);
  const auto compiled = CompiledNetlist::compile(nl);
  const DelayAnnotation delays(nl, unitLibrary());
  for (const LaneSelection sel : oisa::netlist::availableLaneSelections()) {
    const auto evaluator = oisa::netlist::makeBatchEvaluator(compiled, sel);
    EXPECT_TRUE(evaluator->selection() == sel);
    EXPECT_EQ(evaluator->lanes(), sel.width);
    EXPECT_EQ(evaluator->wordsPerNet(), sel.wordsPerNet());
    const auto sampler = oisa::timing::makeLaneSampler(compiled, delays,
                                                       1.0, sel);
    EXPECT_TRUE(sampler->selection() == sel);
    EXPECT_EQ(sampler->lanes(), sel.width);
    const auto engine = oisa::fault::makePpsfpEngine(compiled, sel);
    EXPECT_TRUE(engine->selection() == sel);
    EXPECT_EQ(engine->lanes(), sel.width);
  }
}

// ---------------------------------------------------------------------------
// Engine bit-exactness: every wide variant vs the 64-lane reference.
// ---------------------------------------------------------------------------

TEST(LaneWidthTest, BatchEvaluatorBitExactOnRandomNetlists) {
  OISA_TRACE_SEED(1234);
  std::mt19937_64 rng(1234);
  for (int trial = 0; trial < 4; ++trial) {
    const Netlist nl = randomNetlist(rng, 12, 80);
    const auto compiled = CompiledNetlist::compile(nl);
    const auto reference =
        oisa::netlist::makeBatchEvaluator(compiled, kReference);
    for (const LaneSelection sel : wideSelections()) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " " +
                   oisa::netlist::laneSelectionName(sel));
      const auto wide = oisa::netlist::makeBatchEvaluator(compiled, sel);
      oisa::testing::expectLaneBitExact(*reference, *wide, rng);
    }
  }
}

TEST(LaneWidthTest, BatchEvaluatorBitExactOnAllPaperDesignsAndC17) {
  OISA_TRACE_SEED(56);
  std::mt19937_64 rng(56);
  std::vector<std::shared_ptr<const CompiledNetlist>> compiles;
  const auto designs =
      oisa::circuits::synthesizePaperDesigns(CellLibrary::generic65(), {});
  ASSERT_EQ(designs.size(), 12u);
  for (const auto& design : designs) {
    compiles.push_back(CompiledNetlist::compile(design.netlist));
  }
  compiles.push_back(CompiledNetlist::compile(
      oisa::netlist::readBenchString(kC17, "c17")));
  for (const auto& compiled : compiles) {
    const auto reference =
        oisa::netlist::makeBatchEvaluator(compiled, kReference);
    for (const LaneSelection sel : wideSelections()) {
      SCOPED_TRACE(oisa::netlist::laneSelectionName(sel));
      const auto wide = oisa::netlist::makeBatchEvaluator(compiled, sel);
      oisa::testing::expectLaneBitExact(*reference, *wide, rng, 2);
    }
  }
}

TEST(LaneWidthTest, TimedSamplerBitExactOnRandomNetlists) {
  OISA_TRACE_SEED(909);
  std::mt19937_64 rng(909);
  for (int trial = 0; trial < 3; ++trial) {
    const Netlist nl = randomNetlist(rng, 10, 60);
    DelayAnnotation delays(nl, CellLibrary::generic65());
    delays.applyVariation(rng, 0.35);  // off-grid doubles: quantization
    const double critical = criticalDelayNs(nl, delays);
    for (const double frac : {0.4, 1.2}) {
      const double periodNs = std::max(critical * frac, 0.001);
      for (const LaneSelection sel : wideSelections()) {
        SCOPED_TRACE("trial " + std::to_string(trial) + " frac " +
                     std::to_string(frac) + " " +
                     oisa::netlist::laneSelectionName(sel));
        oisa::testing::expectLaneBitExact(CompiledNetlist::compile(nl),
                                          delays, periodNs, sel, 10, rng);
      }
    }
  }
}

TEST(LaneWidthTest, TimedSamplerBitExactOnAllPaperDesigns) {
  OISA_TRACE_SEED(4242);
  std::mt19937_64 rng(4242);
  oisa::circuits::SynthesisOptions options;
  options.relaxSlack = true;  // exercise relaxation-mutated delays
  const auto designs = oisa::circuits::synthesizePaperDesigns(
      CellLibrary::generic65(), options);
  ASSERT_EQ(designs.size(), 12u);
  const double periodNs = oisa::experiments::overclockedPeriodNs(0.3, 15.0);
  for (const auto& design : designs) {
    const auto compiled = CompiledNetlist::compile(design.netlist);
    for (const LaneSelection sel : wideSelections()) {
      SCOPED_TRACE(design.config.name() + " " +
                   oisa::netlist::laneSelectionName(sel));
      oisa::testing::expectLaneBitExact(compiled, design.delays, periodNs,
                                        sel, 6, rng);
    }
  }
}

TEST(LaneWidthTest, TimedSamplerBitExactWithStuckClampOnC17) {
  // forceNet at wide widths broadcasts the 64-bit lane mask across every
  // sub-block; a defective run must slice exactly like a healthy one.
  OISA_TRACE_SEED(31);
  std::mt19937_64 rng(31);
  const Netlist nl = oisa::netlist::readBenchString(kC17, "c17");
  const auto compiled = CompiledNetlist::compile(nl);
  const DelayAnnotation delays(nl, unitLibrary());
  oisa::fault::FaultUniverse universe(compiled);
  std::vector<oisa::fault::Fault> stems;
  for (const auto& f : universe.all()) {
    if (f.isStem()) stems.push_back(f);
  }
  ASSERT_FALSE(stems.empty());
  for (const LaneSelection sel : wideSelections()) {
    const auto& fault = stems[rng() % stems.size()];
    const std::uint64_t laneMask = rng() | 1;  // nonempty lane subset
    SCOPED_TRACE(oisa::netlist::laneSelectionName(sel));
    oisa::testing::expectLaneBitExact(
        compiled, delays, 2.5, sel, 8, rng,
        [&](oisa::timing::AnyLaneSimulator& sim) {
          oisa::fault::injectStuckAt(sim, fault, laneMask);
        });
  }
}

TEST(LaneWidthTest, PpsfpBitExactOnRandomNetlistsAndC17) {
  OISA_TRACE_SEED(777);
  std::mt19937_64 rng(777);
  std::vector<std::shared_ptr<const CompiledNetlist>> compiles;
  for (int trial = 0; trial < 3; ++trial) {
    compiles.push_back(
        CompiledNetlist::compile(randomNetlist(rng, 8, 40, 6)));
  }
  compiles.push_back(CompiledNetlist::compile(
      oisa::netlist::readBenchString(kC17, "c17")));
  for (const auto& compiled : compiles) {
    oisa::fault::FaultUniverse universe(compiled);
    const auto reference =
        oisa::fault::makePpsfpEngine(compiled, kReference);
    for (const LaneSelection sel : wideSelections()) {
      SCOPED_TRACE(oisa::netlist::laneSelectionName(sel));
      const auto wide = oisa::fault::makePpsfpEngine(compiled, sel);
      oisa::testing::expectLaneBitExact(*reference, *wide, universe.all(),
                                        rng, 4);
    }
  }
}

TEST(LaneWidthTest, PpsfpBitExactOnPaperDesigns) {
  OISA_TRACE_SEED(888);
  std::mt19937_64 rng(888);
  for (const auto cfg : {oisa::core::makeIsa(4, 1, 1, 2, 16),
                         oisa::core::makeIsa(8, 2, 1, 4)}) {
    const auto design =
        oisa::circuits::synthesize(cfg, CellLibrary::generic65(), {});
    const auto compiled = CompiledNetlist::compile(design.netlist);
    oisa::fault::FaultUniverse universe(compiled);
    const auto reference =
        oisa::fault::makePpsfpEngine(compiled, kReference);
    for (const LaneSelection sel : wideSelections()) {
      SCOPED_TRACE(design.config.name() + " " +
                   oisa::netlist::laneSelectionName(sel));
      const auto wide = oisa::fault::makePpsfpEngine(compiled, sel);
      oisa::testing::expectLaneBitExact(*reference, *wide,
                                        universe.collapsed(), rng, 2);
    }
  }
}

// ---------------------------------------------------------------------------
// Consumer invariance: traces and coverage campaigns are pure functions
// of the stimulus stream — identical output at every forced width.
// ---------------------------------------------------------------------------

TEST(LaneWidthTest, TraceCollectorInvariantAcrossWidths) {
  const auto design = oisa::circuits::synthesize(
      oisa::core::makeIsa(8, 2, 1, 4), CellLibrary::generic65(), {});
  const double periodNs = oisa::experiments::overclockedPeriodNs(0.3, 15.0);
  auto collectAt = [&](const std::string& spec) {
    ScopedLaneWidth env(spec);
    auto wl = oisa::experiments::makeWorkload("uniform", 32, 99);
    return oisa::experiments::collectTrace(design, periodNs, *wl, 391);
  };
  const auto reference = collectAt("64");
  for (const LaneSelection sel : wideSelections()) {
    SCOPED_TRACE(oisa::netlist::laneSelectionName(sel));
    const auto trace = collectAt(specFor(sel));
    ASSERT_EQ(trace.size(), reference.size());
    for (std::size_t t = 0; t < trace.size(); ++t) {
      ASSERT_EQ(trace[t].silver, reference[t].silver) << "record " << t;
      ASSERT_EQ(trace[t].silverCout, reference[t].silverCout)
          << "record " << t;
      ASSERT_EQ(trace[t].a, reference[t].a) << "record " << t;
    }
  }
}

TEST(LaneWidthTest, MultiWindowTraceMatchesScalarAtEveryWidth) {
  // 65 lanes span two 64-lane sub-blocks at the wide widths (64 at the
  // reference width). Three windows plus a ragged tail on a deep overclock
  // carry history stimuli across every window boundary; the streamed
  // combination must equal the one folded from collect().
  oisa::circuits::SynthesisOptions options;
  options.relaxSlack = true;
  const auto design = oisa::circuits::synthesize(
      oisa::core::makeIsa(8, 0, 0, 4), CellLibrary::generic65(), options);
  const double periodNs = design.criticalDelayNs * 0.35;
  constexpr std::size_t kMaxLanes = 65;
  const std::uint64_t cycles =
      3 * kMaxLanes * oisa::experiments::TraceCollector::kWindowSteps + 29;
  auto scalarWl = oisa::experiments::makeWorkload("uniform", 32, 313);
  const auto reference = oisa::experiments::collectTraceScalar(
      design, periodNs, *scalarWl, cycles);
  const auto fold = [](oisa::core::ErrorCombination& combo,
                       std::span<const oisa::predict::TraceRecord> records) {
    for (const auto& rec : records) {
      combo.add({rec.diamondValue(32), rec.goldValue(32),
                 rec.silverValue(32)});
    }
  };
  for (const LaneSelection sel : oisa::netlist::availableLaneSelections()) {
    SCOPED_TRACE(oisa::netlist::laneSelectionName(sel));
    ScopedLaneWidth env(specFor(sel));
    oisa::experiments::TraceCollector collector(design, periodNs, kMaxLanes);
    ASSERT_GE(collector.historyDepth(), 3);
    auto wl = oisa::experiments::makeWorkload("uniform", 32, 313);
    const auto trace = collector.collect(*wl, cycles);
    ASSERT_EQ(trace.size(), reference.size());
    for (std::size_t t = 0; t < trace.size(); ++t) {
      ASSERT_EQ(trace[t].a, reference[t].a) << "record " << t;
      ASSERT_EQ(trace[t].gold, reference[t].gold) << "record " << t;
      ASSERT_EQ(trace[t].silver, reference[t].silver) << "record " << t;
      ASSERT_EQ(trace[t].silverCout, reference[t].silverCout)
          << "record " << t;
    }
    oisa::core::ErrorCombination collected;
    fold(collected, trace);
    oisa::core::ErrorCombination streamed;
    wl = oisa::experiments::makeWorkload("uniform", 32, 313);
    collector.stream(*wl, cycles,
                     [&](std::span<const oisa::predict::TraceRecord> w) {
                       fold(streamed, w);
                     });
    EXPECT_EQ(streamed.cycles(), cycles);
    EXPECT_EQ(streamed.relJoint().rms(), collected.relJoint().rms());
    EXPECT_EQ(streamed.relTiming().rms(), collected.relTiming().rms());
    EXPECT_EQ(streamed.arithJoint().meanAbs(),
              collected.arithJoint().meanAbs());
  }
}

TEST(LaneWidthTest, InterleavedStreamsMatchPerStreamReferencesAtEveryWidth) {
  // The fault scan's 64-stream schedule at full width: seven 64-lane
  // windows at the reference width, two at 256 lanes and one at 512. Each
  // record's history reaches two or more of its stream's cycles back.
  oisa::circuits::SynthesisOptions options;
  options.relaxSlack = true;
  const auto design = oisa::circuits::synthesize(
      oisa::core::makeIsa(8, 0, 0, 4), CellLibrary::generic65(), options);
  const double periodNs = design.criticalDelayNs * 0.35;
  for (const LaneSelection sel : oisa::netlist::availableLaneSelections()) {
    SCOPED_TRACE(oisa::netlist::laneSelectionName(sel));
    ScopedLaneWidth env(specFor(sel));
    oisa::experiments::TraceCollector collector(design, periodNs, 0, 64);
    ASSERT_GE(collector.historyDepth(), 3);
    oisa::testing::expectStreamsMatchScalar(collector, design, 64,
                                            "random-walk", 607, 24653);
  }
}

TEST(LaneWidthTest, RandomCoverageInvariantAcrossWidths) {
  std::mt19937_64 rng(606);
  std::vector<std::shared_ptr<const CompiledNetlist>> compiles;
  compiles.push_back(CompiledNetlist::compile(
      oisa::netlist::readBenchString(kC17, "c17")));
  compiles.push_back(
      CompiledNetlist::compile(randomNetlist(rng, 8, 40, 6)));
  oisa::fault::CoverageOptions options;
  options.patterns = 300;  // not a multiple of any block width
  options.seed = 5;
  for (const auto& compiled : compiles) {
    oisa::fault::FaultUniverse universe(compiled);
    const auto refEngine =
        oisa::fault::makePpsfpEngine(compiled, kReference);
    const auto reference =
        oisa::fault::runRandomCoverage(universe, *refEngine, options);
    for (const LaneSelection sel : wideSelections()) {
      SCOPED_TRACE(oisa::netlist::laneSelectionName(sel));
      const auto engine = oisa::fault::makePpsfpEngine(compiled, sel);
      const auto result =
          oisa::fault::runRandomCoverage(universe, *engine, options);
      EXPECT_EQ(result.universeFaults, reference.universeFaults);
      EXPECT_EQ(result.collapsedClasses, reference.collapsedClasses);
      EXPECT_EQ(result.detectedClasses, reference.detectedClasses);
      EXPECT_EQ(result.patternsApplied, reference.patternsApplied);
      EXPECT_EQ(result.detected, reference.detected);
      EXPECT_EQ(result.firstDetectedAt, reference.firstDetectedAt);
    }
  }
}

}  // namespace

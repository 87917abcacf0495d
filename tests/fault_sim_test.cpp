// Differential tests of the stuck-at fault subsystem: the PPSFP engine is
// proven bit-exact against the serial single-pattern reference simulator
// on random netlists, the ISCAS-85 c17 benchmark and all twelve paper
// designs; structural equivalence collapsing is proven sound by checking
// every universe member against its class representative; and the timed
// injection hook (LaneTimedSimulator::forceNet) is cross-checked against
// the functional faulty machine at a settling period.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>

#include "circuits/synthesis.h"
#include "core/isa_config.h"
#include "core/status.h"
#include "experiments/fault_scan.h"
#include "experiments/grid_scheduler.h"
#include "fault/coverage.h"
#include "fault/fault_universe.h"
#include "fault/ppsfp.h"
#include "fault/ppsfp_dispatch.h"
#include "fault/timed_fault.h"
#include "netlist/bench_io.h"
#include "netlist/compiled_netlist.h"
#include "netlist/gate.h"
#include "reference/serial_fault_sim.h"
#include "timing/cell_library.h"
#include "timing/delay_annotation.h"
#include "timing/lane_sim.h"

#include "differential_harness.h"

namespace {

using oisa::fault::CoverageOptions;
using oisa::fault::Fault;
using oisa::fault::FaultUniverse;
using oisa::fault::PpsfpEngine;
using oisa::fault::SerialFaultSimulator;
using oisa::fault::StuckAt;
using oisa::netlist::CompiledNetlist;
using oisa::netlist::GateKind;
using oisa::netlist::Netlist;
using oisa::netlist::NetId;

using oisa::testing::kC17;
using oisa::testing::randomWords;

/// Harness DAG with this suite's historical 6-output shape (the seeded
/// rng consumption, and so every netlist below, is unchanged).
Netlist randomNetlist(std::mt19937_64& rng, int inputCount, int gateCount) {
  return oisa::testing::randomNetlist(rng, inputCount, gateCount, 6);
}

/// Asserts PPSFP detection == serial reference detection for every fault
/// in `faults`, on one `count`-pattern block of `words`.
void expectBlockMatchesSerial(const std::shared_ptr<const CompiledNetlist>&
                                  compiled,
                              std::span<const Fault> faults,
                              std::span<const std::uint64_t> words,
                              std::size_t count) {
  PpsfpEngine engine(compiled);
  engine.loadPatterns(words, count);
  std::vector<std::uint64_t> detected(faults.size());
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    detected[fi] = engine.detectLanes(faults[fi]);
    // Lanes beyond the pattern count must never report detection.
    ASSERT_EQ(detected[fi] & ~engine.laneMask(), 0u);
  }
  SerialFaultSimulator serial(compiled);
  std::vector<std::uint8_t> bits(words.size());
  for (std::size_t lane = 0; lane < count; ++lane) {
    for (std::size_t i = 0; i < words.size(); ++i) {
      bits[i] = static_cast<std::uint8_t>((words[i] >> lane) & 1u);
    }
    serial.setPattern(bits);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      ASSERT_EQ(serial.detects(faults[fi]),
                ((detected[fi] >> lane) & 1u) != 0)
          << "fault " << oisa::fault::describeFault(*compiled, faults[fi])
          << " lane " << lane;
    }
  }
}

TEST(FaultUniverseTest, EnumeratesStemsAndMultiFanoutBranches) {
  // y = (a & b) | b: b has two reader entries -> 2 branch-fault pairs;
  // a and the AND output have one each -> stems only.
  Netlist nl("u");
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId ab = nl.gate2(GateKind::And2, a, b, "ab");
  nl.output("y", nl.gate2(GateKind::Or2, ab, b, "y"));
  const auto compiled = CompiledNetlist::compile(nl);
  FaultUniverse universe(compiled);
  // Nets: a, b, ab, y -> 8 stem faults; branches only on b -> 4.
  EXPECT_EQ(universe.all().size(), 12u);
  std::size_t branches = 0;
  for (const Fault& f : universe.all()) {
    if (!f.isStem()) {
      ++branches;
      EXPECT_EQ(f.net, b.value);
    }
  }
  EXPECT_EQ(branches, 4u);
  // Class sizes add back up to the full universe.
  std::size_t members = 0;
  for (std::size_t ci = 0; ci < universe.collapsed().size(); ++ci) {
    members += universe.classSize(ci);
  }
  EXPECT_EQ(members, universe.all().size());
}

TEST(FaultUniverseTest, CollapsesFanoutFreeChainsToTheDominator) {
  // Inverter chain a -> x -> y -> out: all stem faults collapse into two
  // classes (one per polarity at the dominator), 8 -> 2.
  Netlist nl("chain");
  const NetId a = nl.input("a");
  const NetId x = nl.gate1(GateKind::Inv, a, "x");
  const NetId y = nl.gate1(GateKind::Inv, x, "y");
  nl.output("out", nl.gate1(GateKind::Inv, y, "out"));
  const auto compiled = CompiledNetlist::compile(nl);
  FaultUniverse universe(compiled);
  EXPECT_EQ(universe.all().size(), 8u);
  ASSERT_EQ(universe.collapsed().size(), 2u);
  // Representatives sit on the chain's output net (the dominator).
  for (const Fault& rep : universe.collapsed()) {
    EXPECT_TRUE(rep.isStem());
    EXPECT_EQ(compiled->source().net(NetId{rep.net}).name, "out");
  }
}

TEST(FaultUniverseTest, PrimaryOutputTapsBlockCollapsing) {
  // The AND output is itself a primary output, so its input-side faults
  // must NOT merge past it even though the net is fanout-free from the
  // gate's perspective... but here `t` both feeds the inverter and is a
  // PO: t/SA0 is directly observable while inv-out/SA1 is not equivalent.
  Netlist nl("po");
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId t = nl.gate2(GateKind::And2, a, b, "t");
  nl.output("t", t);
  nl.output("y", nl.gate1(GateKind::Inv, t, "y"));
  const auto compiled = CompiledNetlist::compile(nl);
  FaultUniverse universe(compiled);
  for (std::size_t f = 0; f < universe.all().size(); ++f) {
    const Fault& fault = universe.all()[f];
    if (fault.net == t.value && fault.isStem()) {
      // t's stem faults form their own classes (possibly joined by a/b
      // faults from below, never by the inverter output above).
      const Fault& rep = universe.collapsed()[universe.classOf(f)];
      EXPECT_NE(compiled->source().net(NetId{rep.net}).name, "y");
    }
  }
}

TEST(FaultCollapsingTest, EveryMemberMatchesItsRepresentativeOnRandomBlocks) {
  OISA_TRACE_SEED(2024);
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 8; ++trial) {
    const Netlist nl = randomNetlist(rng, 6, 24);
    const auto compiled = CompiledNetlist::compile(nl);
    FaultUniverse universe(compiled);
    PpsfpEngine engine(compiled);
    for (int blk = 0; blk < 3; ++blk) {
      const auto words = randomWords(rng, compiled->inputNets().size());
      engine.loadPatterns(words);
      for (std::size_t f = 0; f < universe.all().size(); ++f) {
        const Fault& member = universe.all()[f];
        const Fault& rep = universe.collapsed()[universe.classOf(f)];
        ASSERT_EQ(engine.detectLanes(member), engine.detectLanes(rep))
            << "member " << oisa::fault::describeFault(*compiled, member)
            << " vs rep " << oisa::fault::describeFault(*compiled, rep);
      }
    }
  }
}

TEST(PpsfpTest, MatchesSerialReferenceOnRandomNetlists) {
  OISA_TRACE_SEED(7);
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const Netlist nl = randomNetlist(rng, 6, 30);
    const auto compiled = CompiledNetlist::compile(nl);
    FaultUniverse universe(compiled);
    // Full blocks and a short block exercise the lane mask.
    const std::size_t counts[] = {64, 1 + rng() % 63};
    for (const std::size_t count : counts) {
      const auto words = randomWords(rng, compiled->inputNets().size());
      expectBlockMatchesSerial(compiled,
                               {universe.all().begin(), universe.all().end()},
                               words, count);
    }
  }
}

TEST(PpsfpTest, MatchesSerialReferenceOnC17Exhaustively) {
  const Netlist nl = oisa::netlist::readBenchString(kC17, "c17");
  const auto compiled = CompiledNetlist::compile(nl);
  FaultUniverse universe(compiled);
  // All 32 input patterns in one block.
  std::vector<std::uint64_t> words(5, 0);
  for (std::uint64_t p = 0; p < 32; ++p) {
    for (std::size_t i = 0; i < 5; ++i) {
      words[i] |= ((p >> i) & 1u) << p;
    }
  }
  expectBlockMatchesSerial(compiled,
                           {universe.all().begin(), universe.all().end()},
                           words, 32);
  // c17 is fully testable: exhaustive stimuli detect every single fault
  // in the full universe.
  PpsfpEngine engine(compiled);
  engine.loadPatterns(words, 32);
  for (const Fault& f : universe.all()) {
    EXPECT_NE(engine.detectLanes(f), 0u)
        << oisa::fault::describeFault(*compiled, f);
  }
}

TEST(PpsfpTest, MatchesSerialReferenceOnAllPaperDesigns) {
  const auto designs = oisa::circuits::synthesizePaperDesigns(
      oisa::timing::CellLibrary::generic65(), {});
  ASSERT_EQ(designs.size(), 12u);
  std::mt19937_64 rng(99);
  for (const auto& design : designs) {
    const auto compiled = CompiledNetlist::compile(design.netlist);
    FaultUniverse universe(compiled);
    const auto faults = sampleFaults(universe.all(), 40);
    const auto words = randomWords(rng, compiled->inputNets().size());
    expectBlockMatchesSerial(compiled, faults, words, 64);
  }
}

TEST(CoverageTest, DroppingDoesNotChangeTheDetectedSet) {
  std::mt19937_64 rng(5);
  const Netlist nl = randomNetlist(rng, 8, 40);
  const auto compiled = CompiledNetlist::compile(nl);
  FaultUniverse universe(compiled);
  // 64-lane engines: 512 patterns span eight blocks, so dropping has
  // later blocks to save work on.
  const auto dropEngine = oisa::fault::makePpsfpEngine(compiled, {});
  const auto keepEngine = oisa::fault::makePpsfpEngine(compiled, {});
  CoverageOptions options;
  options.patterns = 512;
  options.seed = 11;
  options.dropDetected = true;
  const auto dropped =
      oisa::fault::runRandomCoverage(universe, *dropEngine, options);
  options.dropDetected = false;
  const auto kept =
      oisa::fault::runRandomCoverage(universe, *keepEngine, options);
  EXPECT_EQ(dropped.detected, kept.detected);
  EXPECT_EQ(dropped.detectedClasses, kept.detectedClasses);
  EXPECT_EQ(dropped.firstDetectedAt, kept.firstDetectedAt);
  EXPECT_EQ(dropped.patternsApplied, kept.patternsApplied);
  EXPECT_GT(dropped.detectedClasses, 0u);
  // Dropping strictly saves work once anything was detected early.
  EXPECT_LT(dropEngine->faultsSimulated(), keepEngine->faultsSimulated());
}

TEST(CoverageTest, C17ReachesFullCoverageExhaustively) {
  const Netlist nl = oisa::netlist::readBenchString(kC17, "c17");
  const auto compiled = CompiledNetlist::compile(nl);
  FaultUniverse universe(compiled);
  // The source below packs one word per input: a 64-lane engine.
  const auto engine = oisa::fault::makePpsfpEngine(compiled, {});
  // 5 inputs: 64 random patterns all but surely include the needed ones;
  // use exhaustive stimuli via the block source for determinism.
  CoverageOptions options;
  options.patterns = 32;
  bool served = false;
  const auto result = oisa::fault::runCoverage(
      universe, *engine, options,
      [&](std::span<std::uint64_t> words) -> std::size_t {
        if (served) return 0;
        served = true;
        std::fill(words.begin(), words.end(), 0);
        for (std::uint64_t p = 0; p < 32; ++p) {
          for (std::size_t i = 0; i < 5; ++i) {
            words[i] |= ((p >> i) & 1u) << p;
          }
        }
        return 32;
      });
  EXPECT_EQ(result.detectedClasses, result.collapsedClasses);
  EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
  for (const std::uint64_t at : result.firstDetectedAt) {
    EXPECT_LT(at, 32u);
  }
}

TEST(FaultModelTest, RejectsCyclicAndBranchMisuse) {
  // Cyclic compile (self-referential through replaceGateInput).
  Netlist nl("cyc");
  const NetId a = nl.input("a");
  const NetId x = nl.gate2(GateKind::And2, a, a, "x");
  const NetId y = nl.gate1(GateKind::Buf, x, "y");
  nl.output("y", y);
  nl.replaceGateInput(oisa::netlist::GateId{0}, 1,
                      y);  // x now reads y: cycle
  const auto compiled = CompiledNetlist::compile(nl);
  ASSERT_FALSE(compiled->acyclic());
  EXPECT_THROW(FaultUniverse{compiled}, std::runtime_error);
  EXPECT_THROW(PpsfpEngine{compiled}, std::runtime_error);
  EXPECT_THROW(SerialFaultSimulator{compiled}, std::runtime_error);
}

// --- timing-aware injection ---------------------------------------------

oisa::timing::CellLibrary unitLibrary() {
  oisa::timing::CellLibrary lib;
  for (const GateKind kind : oisa::netlist::allGateKinds()) {
    lib.cell(kind) = oisa::timing::CellTiming{1.0, 0.0, 1.0};
  }
  lib.cell(GateKind::Const0) = oisa::timing::CellTiming{0.0, 0.0, 0.0};
  lib.cell(GateKind::Const1) = oisa::timing::CellTiming{0.0, 0.0, 0.0};
  return lib;
}

TEST(TimedFaultTest, ClampedLaneSimulatorMatchesFunctionalFaultyMachine) {
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 6; ++trial) {
    const Netlist nl = randomNetlist(rng, 6, 25);
    const auto compiled = CompiledNetlist::compile(nl);
    const oisa::timing::DelayAnnotation delays(nl, unitLibrary());
    FaultUniverse universe(compiled);
    SerialFaultSimulator serial(compiled);

    // Pick a handful of stem faults.
    std::vector<Fault> stems;
    for (const Fault& f : universe.collapsed()) {
      if (f.isStem()) stems.push_back(f);
    }
    ASSERT_FALSE(stems.empty());
    for (std::size_t pick = 0; pick < std::min<std::size_t>(4, stems.size());
         ++pick) {
      const Fault f = stems[rng() % stems.size()];
      // Period far beyond the critical path: sampled outputs are the
      // settled faulty function of the cycle's inputs.
      oisa::timing::LaneClockedSampler sampler(compiled, delays, 1000.0);
      oisa::fault::injectStuckAt(sampler.simulator(), f);
      const auto words = randomWords(rng, compiled->inputNets().size());
      sampler.initialize(words);
      std::vector<std::uint64_t> out;
      const auto step = randomWords(rng, compiled->inputNets().size());
      sampler.stepInto(step, out);

      std::vector<std::uint8_t> bits(step.size());
      for (std::size_t lane = 0; lane < 64; ++lane) {
        for (std::size_t i = 0; i < step.size(); ++i) {
          bits[i] = static_cast<std::uint8_t>((step[i] >> lane) & 1u);
        }
        serial.setPattern(bits);
        const auto faulty = serial.faultyOutputs(f);
        for (std::size_t o = 0; o < out.size(); ++o) {
          ASSERT_EQ((out[o] >> lane) & 1u, faulty[o])
              << "fault " << oisa::fault::describeFault(*compiled, f)
              << " lane " << lane << " output " << o;
        }
      }
    }
  }
}

TEST(TimedFaultTest, PartialLaneMaskKeepsHealthyLanesOnTheGoodMachine) {
  std::mt19937_64 rng(47);
  const Netlist nl = randomNetlist(rng, 5, 20);
  const auto compiled = CompiledNetlist::compile(nl);
  const oisa::timing::DelayAnnotation delays(nl, unitLibrary());
  FaultUniverse universe(compiled);
  Fault stem;
  bool found = false;
  for (const Fault& f : universe.collapsed()) {
    if (f.isStem()) {
      stem = f;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);

  // Defect only in the low 32 lanes; the high lanes stay healthy.
  constexpr std::uint64_t kFaultyLanes = 0xffffffffull;
  oisa::timing::LaneClockedSampler sampler(compiled, delays, 1000.0);
  oisa::fault::injectStuckAt(sampler.simulator(), stem, kFaultyLanes);
  const auto step = randomWords(rng, compiled->inputNets().size());
  sampler.initialize(step);
  std::vector<std::uint64_t> out;
  sampler.stepInto(step, out);

  SerialFaultSimulator serial(compiled);
  std::vector<std::uint8_t> bits(step.size());
  for (std::size_t lane = 0; lane < 64; ++lane) {
    for (std::size_t i = 0; i < step.size(); ++i) {
      bits[i] = static_cast<std::uint8_t>((step[i] >> lane) & 1u);
    }
    serial.setPattern(bits);
    const auto expected = (kFaultyLanes >> lane) & 1u
                              ? serial.faultyOutputs(stem)
                              : serial.goodOutputs();
    for (std::size_t o = 0; o < out.size(); ++o) {
      ASSERT_EQ((out[o] >> lane) & 1u, expected[o]) << "lane " << lane;
    }
  }
}

TEST(TimedFaultTest, SelectTimedFaultsFiltersBranchFaults) {
  const std::vector<Fault> mixed = {
      Fault{3, Fault::kStem, StuckAt::SA0},
      Fault{5, 2, StuckAt::SA1},  // branch: skipped
      Fault{7, Fault::kStem, StuckAt::SA1},
  };
  const auto picked = oisa::fault::selectTimedFaults(mixed, 8);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0].net, 3u);
  EXPECT_EQ(picked[1].net, 7u);

  oisa::timing::CellLibrary lib = unitLibrary();
  Netlist nl("tiny");
  nl.output("y", nl.gate1(GateKind::Inv, nl.input("a"), "y"));
  const oisa::timing::DelayAnnotation delays(nl, lib);
  oisa::timing::LaneTimedSimulator sim(nl, delays);
  EXPECT_THROW(
      oisa::fault::injectStuckAt(sim, Fault{0, 0, StuckAt::SA0}),
      std::invalid_argument);
}

TEST(FaultScanTest, SmallDesignScanProducesCoverageAndShift) {
  // Two small ISA designs keep this fast while exercising the whole
  // pipeline: universe -> collapse -> PPSFP coverage -> timed defects.
  oisa::circuits::SynthesisOptions synth;
  const std::vector<oisa::circuits::SynthesizedDesign> designs = {
      oisa::circuits::synthesize(oisa::core::makeIsa(4, 1, 1, 2, 16),
                                 oisa::timing::CellLibrary::generic65(),
                                 synth),
      oisa::circuits::synthesize(oisa::core::makeIsa(4, 2, 1, 2, 16),
                                 oisa::timing::CellLibrary::generic65(),
                                 synth),
  };
  oisa::experiments::FaultScanOptions options;
  options.run.cycles = 512;
  options.run.seed = 3;
  options.run.threads = 1;
  options.cprPercent = 15.0;
  options.timedCycles = 256;
  options.timedFaults = 3;
  const auto rows = oisa::experiments::runFaultErrorScan(designs, options);
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& row : rows) {
    EXPECT_GT(row.universeFaults, row.collapsedClasses);
    EXPECT_GT(row.detectedClasses, 0u);
    EXPECT_GT(row.coveragePercent, 0.0);
    EXPECT_EQ(row.timedFaultsMeasured, 3u);
    // A stuck-at defect on a detected class must hurt (or at least not
    // help) the joint error of the overclocked machine on average.
    EXPECT_GE(row.rmsRelJointFaulty, 0.0);
    EXPECT_GE(row.worstRelJointFaulty, row.rmsRelJointFaulty);
  }

  // Grid determinism: two threads produce the identical rows.
  options.run.threads = 2;
  const auto rows2 = oisa::experiments::runFaultErrorScan(designs, options);
  ASSERT_EQ(rows2.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows2[i].detectedClasses, rows[i].detectedClasses);
    EXPECT_DOUBLE_EQ(rows2[i].rmsRelJointHealthy, rows[i].rmsRelJointHealthy);
    EXPECT_DOUBLE_EQ(rows2[i].rmsRelJointFaulty, rows[i].rmsRelJointFaulty);
    EXPECT_DOUBLE_EQ(rows2[i].eJointShift, rows[i].eJointShift);
  }
}

TEST(FaultScanTest, RejectsDesignsOffTheAdderPortConvention) {
  // Both phases pack stimuli as a0..aW-1, b0..bW-1, cin: the c17 netlist
  // (5 inputs, 2 outputs) fails its cell with InvalidInput naming the
  // design and the counts, up front and without retries.
  auto design = oisa::circuits::synthesize(
      oisa::core::makeIsa(4, 1, 1, 2, 16),
      oisa::timing::CellLibrary::generic65(), {});
  design.netlist = oisa::netlist::readBenchString(kC17, "c17");
  design.delays = oisa::timing::DelayAnnotation(
      design.netlist, oisa::timing::CellLibrary::generic65());
  oisa::experiments::FaultScanOptions options;
  options.run.cycles = 64;
  options.run.threads = 1;
  options.timedCycles = 64;
  try {
    (void)oisa::experiments::runFaultErrorScan({design}, options);
    FAIL() << "the c17 netlist was scanned";
  } catch (const oisa::experiments::GridError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    const oisa::core::Status& status = e.failures()[0].status;
    EXPECT_EQ(status.code(), oisa::core::StatusCode::InvalidInput);
    EXPECT_EQ(e.failures()[0].attempts, 1u);
    EXPECT_NE(status.message().find(design.config.name()), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("got 5 and 2"), std::string::npos)
        << status.message();
  }
}

}  // namespace

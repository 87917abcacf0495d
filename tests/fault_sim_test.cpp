// Differential tests of the stuck-at fault subsystem: the PPSFP engine is
// proven bit-exact against the serial single-pattern reference simulator
// on random netlists, the ISCAS-85 c17 benchmark and all twelve paper
// designs; structural equivalence collapsing is proven sound by checking
// every universe member against its class representative; and the timed
// injection hook (LaneTimedSimulator::forceNet) is cross-checked against
// the functional faulty machine at a settling period. The coverage
// campaign's untestable flags are proven exact (under exhaustive patterns
// honouring the held inputs, no flagged class is detected and every
// unflagged one is), left unset where a cone outgrows the BDD node cap,
// and invisible (runCoverage equals a campaign that simulates every
// undetected class, and stops sweeping only once every class is detected
// or flagged).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <tuple>

#include "circuits/synthesis.h"
#include "core/isa_config.h"
#include "core/status.h"
#include "experiments/fault_scan.h"
#include "experiments/grid_scheduler.h"
#include "experiments/workload.h"
#include "fault/coverage.h"
#include "fault/fault_universe.h"
#include "fault/ppsfp.h"
#include "fault/ppsfp_dispatch.h"
#include "fault/timed_fault.h"
#include "netlist/bench_io.h"
#include "netlist/compiled_netlist.h"
#include "netlist/gate.h"
#include "obs/metrics.h"
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

/// The 64-lane engine's detection word for `f` on the loaded block.
std::uint64_t detect(PpsfpEngine& engine, const Fault& f) {
  std::uint64_t word = 0;
  engine.detectLanesInto(f, std::span(&word, 1));
  return word;
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
  const std::uint64_t valid =
      count == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
  std::vector<std::uint64_t> detected(faults.size());
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    detected[fi] = detect(engine, faults[fi]);
    // Lanes beyond the pattern count must never report detection.
    ASSERT_EQ(detected[fi] & ~valid, 0u);
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
        ASSERT_EQ(detect(engine, member), detect(engine, rep))
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
  const Netlist nl = oisa::netlist::readBenchString(kC17, "c17").valueOrThrow();
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
    EXPECT_NE(detect(engine, f), 0u)
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

TEST(CoverageTest, C17ReachesFullCoverageExhaustively) {
  const Netlist nl = oisa::netlist::readBenchString(kC17, "c17").valueOrThrow();
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

/// The campaign loop with no untestable skip: every undetected class is
/// simulated on every block, and with `dropDetected` false every detected
/// one too. runCoverage must return exactly this.
oisa::fault::CoverageResult coverageSimulatingEveryClass(
    const FaultUniverse& universe, oisa::fault::AnyPpsfpEngine& engine,
    std::uint64_t patterns, const oisa::fault::PatternBlockSource& source,
    bool dropDetected = true) {
  const auto classes = universe.collapsed();
  const std::size_t words = engine.wordsPerNet();
  oisa::fault::CoverageResult result;
  result.universeFaults = universe.all().size();
  result.collapsedClasses = classes.size();
  result.detected.assign(classes.size(), 0);
  result.firstDetectedAt.assign(classes.size(), ~std::uint64_t{0});
  std::vector<std::uint64_t> inputWords(
      universe.compiled()->inputNets().size() * words);
  std::vector<std::uint64_t> det(words);
  while (result.patternsApplied < patterns &&
         result.detectedClasses < result.collapsedClasses) {
    const std::size_t count = source(inputWords);
    if (count == 0) break;
    engine.loadPatterns(inputWords, count);
    std::size_t lastWord = 0;
    for (std::size_t ci = 0; ci < classes.size(); ++ci) {
      if (dropDetected && result.detected[ci] != 0) continue;
      engine.detectLanesInto(classes[ci], det);
      if (result.detected[ci] != 0) continue;
      std::size_t j = 0;
      while (j < words && det[j] == 0) ++j;
      if (j == words) continue;
      result.detected[ci] = 1;
      ++result.detectedClasses;
      result.firstDetectedAt[ci] = result.patternsApplied + 64 * j +
                                   static_cast<std::uint64_t>(
                                       std::countr_zero(det[j]));
      lastWord = std::max(lastWord, j);
    }
    result.patternsApplied +=
        result.detectedClasses == result.collapsedClasses
            ? std::min<std::uint64_t>(count, 64 * (lastWord + 1))
            : count;
  }
  return result;
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
  const auto source = [&] {
    return oisa::fault::PatternBlockSource(
        [draws = std::mt19937_64(11)](
            std::span<std::uint64_t> words) mutable -> std::size_t {
          for (std::uint64_t& w : words) w = draws();
          return 64;
        });
  };
  const auto dropped =
      oisa::fault::runCoverage(universe, *dropEngine, options, source());
  const auto kept = coverageSimulatingEveryClass(
      universe, *keepEngine, options.patterns, source(),
      /*dropDetected=*/false);
  EXPECT_EQ(dropped.detected, kept.detected);
  EXPECT_EQ(dropped.detectedClasses, kept.detectedClasses);
  EXPECT_EQ(dropped.firstDetectedAt, kept.firstDetectedAt);
  EXPECT_EQ(dropped.patternsApplied, kept.patternsApplied);
  EXPECT_GT(dropped.detectedClasses, 0u);
  // Dropping strictly saves work once anything was detected early.
  EXPECT_LT(dropEngine->faultsSimulated(), keepEngine->faultsSimulated());
}

/// Adder-port block source: block k packs blockSize(k) stimuli (capped at
/// the engine's lanes and the budget), each from draw(k, rng).
struct AdderBlockSource {
  int width = 0;
  std::size_t lanes = 0;
  std::size_t words = 0;
  std::uint64_t remaining = 0;
  std::function<std::size_t(std::size_t)> blockSize;
  std::function<oisa::experiments::Stimulus(std::size_t, std::mt19937_64&)>
      draw;
  std::mt19937_64 rng{1};
  std::size_t block = 0;

  std::size_t operator()(std::span<std::uint64_t> inputWords) {
    if (remaining == 0) return 0;
    const std::size_t count = std::min<std::uint64_t>(
        {remaining, lanes, blockSize(block)});
    remaining -= count;
    std::vector<oisa::experiments::Stimulus> stims(count);
    for (auto& s : stims) s = draw(block, rng);
    ++block;
    std::fill(inputWords.begin(), inputWords.end(), 0);
    std::vector<std::uint64_t> sub(2 * static_cast<std::size_t>(width) + 1);
    for (std::size_t j = 0; j * 64 < count; ++j) {
      oisa::experiments::packStimulusBlock(
          std::span(stims).subspan(j * 64, std::min<std::size_t>(
                                               count - j * 64, 64)),
          width, sub);
      for (std::size_t i = 0; i < sub.size(); ++i) {
        inputWords[i * words + j] = sub[i];
      }
    }
    return count;
  }
};

TEST(CoverageTest, ReconvergentFanoutMovesConstantsInTheFaultyMachine) {
  // g = AND(n, AND(n, y)) with n = AND(cin, x) and cin held low: the good
  // machine holds n, the inner AND and g at 0, so on its constants alone
  // n looks unobservable. Stuck at 1, n makes g = y: n/SA1 and cin/SA1
  // are detected, and the faulty machine's constants must say so.
  Netlist nl("reconvergent");
  const NetId x = nl.input("x");
  const NetId y = nl.input("y");
  const NetId cin = nl.input("cin");
  const NetId n = nl.gate2(GateKind::And2, cin, x, "n");
  const NetId inner = nl.gate2(GateKind::And2, n, y, "inner");
  nl.output("g", nl.gate2(GateKind::And2, n, inner, "g"));
  const auto compiled = CompiledNetlist::compile(nl);
  FaultUniverse universe(compiled);
  const std::vector<std::optional<bool>> held = {std::nullopt, std::nullopt,
                                                 false};
  const auto flags = oisa::fault::untestableClasses(universe, held);
  ASSERT_EQ(flags.size(), universe.collapsed().size());
  EXPECT_THROW((void)oisa::fault::untestableClasses(
                   universe, std::span(held).first(2)),
               std::invalid_argument);

  // Every pattern with cin low, in one block: x = bit 0, y = bit 1.
  const auto engine = oisa::fault::makePpsfpEngine(compiled, {});
  CoverageOptions options;
  options.patterns = 4;
  bool served = false;
  const auto result = oisa::fault::runCoverage(
      universe, *engine, options,
      [&](std::span<std::uint64_t> words) -> std::size_t {
        if (served) return 0;
        served = true;
        words[0] = 0b1010;
        words[1] = 0b1100;
        words[2] = 0;
        return 4;
      });
  for (const NetId net : {n, cin}) {
    const Fault sa1{net.value, Fault::kStem, StuckAt::SA1};
    const auto it = std::find(universe.all().begin(), universe.all().end(),
                              sa1);
    ASSERT_NE(it, universe.all().end());
    const std::size_t ci = universe.classOf(
        static_cast<std::size_t>(it - universe.all().begin()));
    const std::string name = oisa::fault::describeFault(*compiled, sa1);
    EXPECT_EQ(flags[ci], 0u) << name;
    EXPECT_EQ(result.detected[ci], 1u) << name;
  }
  // The flags are sound, so whatever is left undetected includes them.
  for (std::size_t ci = 0; ci < flags.size(); ++ci) {
    if (flags[ci] != 0) EXPECT_EQ(result.detected[ci], 0u);
  }
}

/// Applies every pattern honouring `held` (at most 16 free inputs) and
/// checks the flags are exact: no flagged class is ever detected, and
/// every unflagged class is detected by some pattern. Returns the number
/// of flagged classes.
std::size_t expectFlagsExact(const Netlist& nl,
                             std::span<const std::optional<bool>> held) {
  const auto compiled = CompiledNetlist::compile(nl);
  FaultUniverse universe(compiled);
  const std::size_t inputs = compiled->inputNets().size();
  std::vector<std::size_t> free;
  for (std::size_t i = 0; i < inputs; ++i) {
    if (!held[i]) free.push_back(i);
  }
  if (free.size() > 16) {
    ADD_FAILURE() << nl.name() << ": " << free.size() << " free inputs";
    return 0;
  }
  const auto flags = oisa::fault::untestableClasses(universe, held);
  const auto classes = universe.collapsed();
  std::vector<std::uint8_t> detected(classes.size(), 0);
  const std::uint64_t patterns = std::uint64_t{1} << free.size();
  PpsfpEngine engine(compiled);
  std::vector<std::uint64_t> words(inputs);
  for (std::uint64_t first = 0; first < patterns; first += 64) {
    const auto count = static_cast<std::size_t>(
        std::min<std::uint64_t>(64, patterns - first));
    for (std::size_t i = 0; i < inputs; ++i) {
      words[i] = held[i] && *held[i] ? ~std::uint64_t{0} : 0;
    }
    for (std::size_t k = 0; k < free.size(); ++k) {
      for (std::size_t lane = 0; lane < count; ++lane) {
        words[free[k]] |= (((first + lane) >> k) & 1u) << lane;
      }
    }
    engine.loadPatterns(words, count);
    for (std::size_t ci = 0; ci < classes.size(); ++ci) {
      if (flags[ci] == 0 && detected[ci] != 0) continue;
      const bool hit = detect(engine, classes[ci]) != 0;
      if (flags[ci] != 0 && hit) {
        ADD_FAILURE() << nl.name() << ": flagged "
                      << oisa::fault::describeFault(*compiled, classes[ci])
                      << " detected";
        return 0;
      }
      detected[ci] = hit ? 1 : 0;
    }
  }
  for (std::size_t ci = 0; ci < classes.size(); ++ci) {
    EXPECT_TRUE(flags[ci] != 0 || detected[ci] != 0)
        << nl.name() << ": "
        << oisa::fault::describeFault(*compiled, classes[ci])
        << " is undetectable but not flagged";
  }
  return static_cast<std::size_t>(
      std::count(flags.begin(), flags.end(), std::uint8_t{1}));
}

TEST(CoverageTest, FlaggedClassesAreNeverDetectedUnderTheHeldInputs) {
  OISA_TRACE_SEED(41);
  std::mt19937_64 rng(41);
  std::vector<Netlist> netlists;
  netlists.push_back(
      oisa::netlist::readBenchString(kC17, "c17").valueOrThrow());
  for (int trial = 0; trial < 50; ++trial) {
    netlists.push_back(randomNetlist(rng, 4 + static_cast<int>(rng() % 13),
                                     20 + static_cast<int>(rng() % 41)));
  }
  std::size_t flaggedTotal = 0;
  for (const Netlist& nl : netlists) {
    std::vector<std::optional<bool>> held(nl.primaryInputs().size());
    for (auto& h : held) {
      if (rng() % 2 == 0) h = rng() % 2 == 0;
    }
    flaggedTotal += expectFlagsExact(nl, held);
  }
  EXPECT_GT(flaggedTotal, 0u);

  // The paper's five block-8 designs, synthesized 16 bits wide so the
  // second path's speculation and compensation logic is present. Carry-in
  // and the second path's operand bits are held low: 16 free inputs,
  // 65,536 patterns.
  const auto lib = oisa::timing::CellLibrary::generic65();
  for (const oisa::core::IsaConfig& paper : oisa::core::paperDesigns()) {
    if (paper.exact || paper.block != 8) continue;
    const auto design = oisa::circuits::synthesize(
        oisa::core::makeIsa(8, paper.spec, paper.correction, paper.reduction,
                            16),
        lib);
    SCOPED_TRACE(design.config.name());
    std::vector<std::optional<bool>> held(33, false);  // a0-15, b0-15, cin
    for (std::size_t i = 0; i < 8; ++i) {
      held[i] = std::nullopt;
      held[16 + i] = std::nullopt;
    }
    EXPECT_GT(expectFlagsExact(design.netlist, held), 0u);
  }
}

TEST(CoverageTest, SkippingFlaggedClassesMatchesSimulatingEveryClass) {
  const auto designs = oisa::circuits::synthesizePaperDesigns(
      oisa::timing::CellLibrary::generic65(), {});
  ASSERT_EQ(designs.size(), 12u);
  using oisa::experiments::Stimulus;
  for (const auto& design : designs) {
    SCOPED_TRACE(design.config.name());
    const int width = design.config.width;
    const std::uint64_t mask =
        width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    const auto compiled = CompiledNetlist::compile(design.netlist);
    FaultUniverse universe(compiled);
    // 64k uniform patterns with carry-in low, as the fault scan draws.
    const auto uniform = [mask](std::size_t, std::mt19937_64& rng) {
      return Stimulus{rng() & mask, rng() & mask, false};
    };
    // Carry-in and the top 8 bits of each operand held for 16 blocks,
    // then released one input per block: the held set shrinks 17 times.
    const auto releasing = [mask, width](std::size_t block,
                                         std::mt19937_64& rng) {
      Stimulus s{rng() & mask, rng() & mask, (rng() & 1) != 0};
      for (std::size_t h = block < 16 ? 0 : block - 15; h < 17; ++h) {
        if (h == 0) {
          s.carryIn = false;
          continue;
        }
        const std::size_t k = (h - 1) / 2;
        const std::uint64_t bit = std::uint64_t{1} << (width - 1 -
                                                       static_cast<int>(k));
        std::uint64_t& op = (h - 1) % 2 == 0 ? s.a : s.b;
        op = ((0xa5u >> k) & 1u) != 0 ? op | bit : op & ~bit;
      }
      return s;
    };
    struct Scenario {
      const char* name;
      std::function<std::size_t(std::size_t)> blockSize;
      std::function<Stimulus(std::size_t, std::mt19937_64&)> draw;
      std::uint64_t blocks;  // budget in engine blocks, or 0: 64k patterns
    };
    const std::size_t full = ~std::size_t{0};
    const Scenario scenarios[] = {
        {"uniform 64k", [=](std::size_t) { return full; }, uniform, 0},
        {"releasing", [=](std::size_t) { return full; }, releasing, 40},
        {"1-pattern first block",
         [=](std::size_t block) { return block == 0 ? 1 : full; }, uniform,
         24},
    };
    for (const bool wide : {true, false}) {
      for (const Scenario& sc : scenarios) {
        SCOPED_TRACE(std::string(sc.name) + (wide ? ", default width"
                                                  : ", 64 lanes"));
        const auto makeEngine = [&] {
          return wide ? oisa::fault::makePpsfpEngine(compiled)
                      : oisa::fault::makePpsfpEngine(compiled, {});
        };
        const auto skipping = makeEngine();
        const auto reference = makeEngine();
        CoverageOptions options;
        options.patterns =
            sc.blocks == 0 ? 1 << 16 : sc.blocks * skipping->lanes();
        const auto source = [&] {
          return oisa::fault::PatternBlockSource(AdderBlockSource{
              width, skipping->lanes(), skipping->wordsPerNet(),
              options.patterns, sc.blockSize, sc.draw});
        };
        const auto got =
            oisa::fault::runCoverage(universe, *skipping, options, source());
        const auto want = coverageSimulatingEveryClass(
            universe, *reference, options.patterns, source());
        EXPECT_EQ(got.universeFaults, want.universeFaults);
        EXPECT_EQ(got.collapsedClasses, want.collapsedClasses);
        EXPECT_EQ(got.detectedClasses, want.detectedClasses);
        EXPECT_EQ(got.patternsApplied, want.patternsApplied);
        EXPECT_EQ(got.detected, want.detected);
        EXPECT_EQ(got.firstDetectedAt, want.firstDetectedAt);
        EXPECT_LT(skipping->faultsSimulated(), reference->faultsSimulated());
      }
    }
  }
}

/// Forwards to a real engine and records which source block each
/// loadPatterns() sweeps (`drawn` counts the blocks drawn so far).
class CountingEngine final : public oisa::fault::AnyPpsfpEngine {
 public:
  CountingEngine(std::unique_ptr<oisa::fault::AnyPpsfpEngine> inner,
                 const std::size_t& drawn)
      : inner_(std::move(inner)), drawn_(drawn) {}

  std::size_t lanes() const noexcept override { return inner_->lanes(); }
  std::size_t wordsPerNet() const noexcept override {
    return inner_->wordsPerNet();
  }
  void loadPatterns(std::span<const std::uint64_t> inputWords,
                    std::size_t patternCount) override {
    swept.push_back(drawn_ - 1);
    inner_->loadPatterns(inputWords, patternCount);
  }
  void detectLanesInto(const Fault& f, std::span<std::uint64_t> out) override {
    inner_->detectLanesInto(f, out);
  }
  std::uint64_t faultsSimulated() const noexcept override {
    return inner_->faultsSimulated();
  }
  std::uint64_t gateEvaluations() const noexcept override {
    return inner_->gateEvaluations();
  }
  std::uint64_t activationSkips() const noexcept override {
    return inner_->activationSkips();
  }
  const std::shared_ptr<const CompiledNetlist>& compiled()
      const noexcept override {
    return inner_->compiled();
  }

  std::vector<std::size_t> swept;  ///< source block of each sweep

 private:
  std::unique_ptr<oisa::fault::AnyPpsfpEngine> inner_;
  const std::size_t& drawn_;
};

TEST(CoverageTest, StopsSweepingOnceEveryClassIsDetectedOrFlagged) {
  oisa::obs::Counter& untestableCounter =
      oisa::obs::counter("fault.untestable_classes");
  const auto designs = oisa::circuits::synthesizePaperDesigns(
      oisa::timing::CellLibrary::generic65(), {});
  using oisa::experiments::Stimulus;
  std::size_t resolved = 0;
  std::size_t resumed = 0;
  for (const auto& design : designs) {
    SCOPED_TRACE(design.config.name());
    const int width = design.config.width;
    const std::uint64_t mask =
        width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    const auto compiled = CompiledNetlist::compile(design.netlist);
    FaultUniverse universe(compiled);
    const auto full = [](std::size_t) { return ~std::size_t{0}; };
    const auto run = [&](std::size_t blocks, const auto& draw) {
      std::size_t drawn = 0;
      CountingEngine engine(oisa::fault::makePpsfpEngine(compiled, {}),
                            drawn);
      CoverageOptions options;
      options.patterns = blocks * 64;
      AdderBlockSource adder{width, 64, 1, options.patterns, full, draw};
      // SkippingFlaggedClassesMatchesSimulatingEveryClass proves these
      // campaigns' results; this test checks which blocks they sweep and
      // how many classes end flagged.
      const std::uint64_t flagged0 = untestableCounter.value();
      const auto got = oisa::fault::runCoverage(
          universe, engine, options,
          [&](std::span<std::uint64_t> words) {
            ++drawn;
            return adder(words);
          });
      return std::tuple(got, engine.swept,
                        untestableCounter.value() - flagged0);
    };
    // The classes no pattern honouring `held` detects.
    const auto proven = [&](std::span<const std::optional<bool>> held) {
      const auto flags = oisa::fault::untestableClasses(universe, held);
      return static_cast<std::uint64_t>(
          std::count(flags.begin(), flags.end(), std::uint8_t{1}));
    };

    // Uniform patterns hold only carry-in low: the sweeps stop with the
    // block holding the last detection once the rest is flagged.
    const auto uniform = [mask](std::size_t, std::mt19937_64& rng) {
      return Stimulus{rng() & mask, rng() & mask, false};
    };
    const auto [cov, swept, flagged] = run(1024, uniform);
    std::vector<std::optional<bool>> held(compiled->inputNets().size());
    held.back() = false;
    EXPECT_EQ(flagged, proven(held));
    std::uint64_t last = 0;
    for (std::size_t ci = 0; ci < cov.detected.size(); ++ci) {
      if (cov.detected[ci] != 0) {
        last = std::max(last, cov.firstDetectedAt[ci] / 64);
      }
    }
    const bool done = cov.detectedClasses + flagged == cov.collapsedClasses;
    resolved += done ? 1 : 0;
    std::vector<std::size_t> want(done ? last + 1 : 1024);
    std::iota(want.begin(), want.end(), std::size_t{0});
    EXPECT_EQ(swept, want);

    // Carry-in and the top 8 bits of each operand held for 16 blocks,
    // then released one input per block: every block 16..32 narrows the
    // held set, so each must be swept, whatever was skipped before.
    const auto releasing = [mask, width](std::size_t block,
                                         std::mt19937_64& rng) {
      Stimulus s{rng() & mask, rng() & mask, (rng() & 1) != 0};
      for (std::size_t h = block < 16 ? 0 : block - 15; h < 17; ++h) {
        if (h == 0) {
          s.carryIn = false;
          continue;
        }
        const std::size_t k = (h - 1) / 2;
        const std::uint64_t bit = std::uint64_t{1} << (width - 1 -
                                                       static_cast<int>(k));
        std::uint64_t& op = (h - 1) % 2 == 0 ? s.a : s.b;
        op = ((0xa5u >> k) & 1u) != 0 ? op | bit : op & ~bit;
      }
      return s;
    };
    const auto [released, sweeps, flaggedAtEnd] = run(40, releasing);
    // Block 32 released the last held input: the final flags are every
    // class no pattern at all detects, and none of them was detected.
    held.back() = std::nullopt;
    EXPECT_EQ(flaggedAtEnd, proven(held));
    for (std::size_t block = 16; block <= 32; ++block) {
      EXPECT_TRUE(std::find(sweeps.begin(), sweeps.end(), block) !=
                  sweeps.end())
          << "block " << block << " narrowed the held set but was skipped";
    }
    if (std::find(sweeps.begin(), sweeps.end(), 15) == sweeps.end()) {
      ++resumed;
    }
  }
  // The five block-8 designs resolve within 64k patterns; some design
  // skips block 15 under the held top bits and sweeps again at 16.
  EXPECT_GE(resolved, 5u);
  EXPECT_GT(resumed, 0u);
}

TEST(CoverageTest, ClassesWhoseConeOutgrowsTheNodeCapStayUnflagged) {
  // An n x n array multiplier whose product bit n also drives
  // y = OR(p_n, AND(p_n, z)). AND/SA0 (with z/SA0) is redundant — y
  // equals p_n either way — and the BDD proves it for a small n. For a
  // large n the middle product bits need more nodes than the cap, so the
  // class stays unflagged, and the campaign still equals simulating
  // every class.
  const auto multiplier = [](int n) {
    Netlist nl("mul" + std::to_string(n));
    std::vector<NetId> a;
    std::vector<NetId> b;
    for (int i = 0; i < n; ++i) a.push_back(nl.input("a" + std::to_string(i)));
    for (int i = 0; i < n; ++i) b.push_back(nl.input("b" + std::to_string(i)));
    const NetId z = nl.input("z");
    std::vector<NetId> acc;  // running sum, bit k of weight 2^k
    for (int i = 0; i < n; ++i) {
      std::vector<NetId> row;
      for (int j = 0; j < n; ++j) row.push_back(nl.gate2(GateKind::And2, a[j], b[i]));
      if (i == 0) {
        acc = row;
        continue;
      }
      // Add row << i into acc with a ripple-carry adder.
      std::optional<NetId> carry;
      for (int j = 0; j < n; ++j) {
        const std::size_t k = static_cast<std::size_t>(i + j);
        if (k >= acc.size()) {
          if (carry) {
            acc.push_back(nl.gate2(GateKind::Xor2, row[j], *carry));
            carry = nl.gate2(GateKind::And2, row[j], *carry);
          } else {
            acc.push_back(row[j]);
          }
          continue;
        }
        const NetId x = nl.gate2(GateKind::Xor2, acc[k], row[j]);
        if (carry) {
          const NetId c = *carry;
          carry = nl.gate3(GateKind::Maj3, acc[k], row[j], c);
          acc[k] = nl.gate2(GateKind::Xor2, x, c);
        } else {
          carry = nl.gate2(GateKind::And2, acc[k], row[j]);
          acc[k] = x;
        }
      }
      if (carry) acc.push_back(*carry);
    }
    for (std::size_t k = 0; k < acc.size(); ++k) {
      nl.output("p" + std::to_string(k), acc[k]);
    }
    const NetId pn = acc[static_cast<std::size_t>(n)];
    const NetId masked = nl.gate2(GateKind::And2, pn, z);
    nl.output("y", nl.gate2(GateKind::Or2, pn, masked));
    return std::pair(std::move(nl), masked);
  };
  // The redundant class's flag with every input free.
  const auto redundantFlag = [](NetId masked, const FaultUniverse& u) {
    const Fault sa0{masked.value, Fault::kStem, StuckAt::SA0};
    const auto it = std::find(u.all().begin(), u.all().end(), sa0);
    EXPECT_NE(it, u.all().end());
    const std::vector<std::optional<bool>> held(
        u.compiled()->inputNets().size());
    return oisa::fault::untestableClasses(u, held)[u.classOf(
        static_cast<std::size_t>(it - u.all().begin()))];
  };

  const auto [small, smallMasked] = multiplier(4);
  EXPECT_EQ(redundantFlag(smallMasked,
                          FaultUniverse(CompiledNetlist::compile(small))),
            1u);

  const auto [big, bigMasked] = multiplier(16);
  const auto compiled = CompiledNetlist::compile(big);
  FaultUniverse universe(compiled);
  EXPECT_EQ(redundantFlag(bigMasked, universe), 0u);
  const auto random = [&] {
    return [rng = std::mt19937_64(7), inputs = compiled->inputNets().size()](
               std::span<std::uint64_t> words) mutable -> std::size_t {
      for (std::size_t i = 0; i < inputs; ++i) words[i] = rng();
      return 64;
    };
  };
  const auto engine = oisa::fault::makePpsfpEngine(compiled, {});
  const auto reference = oisa::fault::makePpsfpEngine(compiled, {});
  CoverageOptions options;
  options.patterns = 16 * 64;
  const auto got =
      oisa::fault::runCoverage(universe, *engine, options, random());
  const auto want = coverageSimulatingEveryClass(universe, *reference,
                                                 options.patterns, random());
  EXPECT_EQ(got.detected, want.detected);
  EXPECT_EQ(got.firstDetectedAt, want.firstDetectedAt);
  EXPECT_EQ(got.patternsApplied, want.patternsApplied);
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
  design.netlist = oisa::netlist::readBenchString(kC17, "c17").valueOrThrow();
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

TEST(FaultScanTest, RejectsZeroCycleCountsBeforeAnyCell) {
  const std::vector<oisa::circuits::SynthesizedDesign> designs = {
      oisa::circuits::synthesize(oisa::core::makeIsa(4, 1, 1, 2, 16),
                                 oisa::timing::CellLibrary::generic65(), {})};
  for (const bool timed : {false, true}) {
    oisa::experiments::FaultScanOptions options;
    options.run.threads = 1;
    (timed ? options.timedCycles : options.run.cycles) = 0;
    const std::string option = timed ? "--timed-cycles" : "(--cycles)";
    try {
      (void)oisa::experiments::runFaultErrorScan(designs, options);
      ADD_FAILURE() << option << " = 0 was accepted";
    } catch (const oisa::core::StatusError& e) {
      // A StatusError, not a GridError: no cell ran.
      EXPECT_EQ(e.code(), oisa::core::StatusCode::InvalidInput) << e.what();
      EXPECT_NE(std::string(e.what()).find(option), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace

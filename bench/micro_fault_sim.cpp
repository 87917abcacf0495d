// Throughput of the PPSFP fault engine (fault::PpsfpEngine, 64 patterns
// per sweep, cone-limited propagation) against the serial single-pattern
// reference (fault::SerialFaultSimulator, one full resimulation per
// (fault, pattern)) on a paper-scale 32-bit ISA design — the acceptance
// benchmark for the fault subsystem (>= 8x is the CI gate; the engine
// lands far above it, since it multiplies 64-lane words by cone-limited
// propagation).
//
// Self-checking: before any timing is reported, a sampled fault set is
// verified lane-for-lane against the serial reference (the full
// differential suite lives in tests/fault_sim_test.cpp).
//
// Usage: micro_fault_sim [--patterns=N] [--serial-faults=N]
//                        [--check-faults=N] [--min-speedup=X] [--json=path]
#include <bit>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <random>
#include <vector>

#include "circuits/synthesis.h"
#include "core/isa_config.h"
#include "experiments/cli.h"
#include "fault/coverage.h"
#include "fault/fault_universe.h"
#include "fault/ppsfp.h"
#include "fault/ppsfp_dispatch.h"
#include "netlist/compiled_netlist.h"
#include "reference/serial_fault_sim.h"
#include "timing/cell_library.h"

#include "bench_common.h"

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);
  const std::uint64_t patterns = args.getU64("patterns", 4096);
  const std::size_t serialFaults =
      static_cast<std::size_t>(args.getU64("serial-faults", 192));
  const std::size_t checkFaults =
      static_cast<std::size_t>(args.getU64("check-faults", 200));
  const double minSpeedup = args.getDouble("min-speedup", 0.0);

  circuits::SynthesisOptions synth;
  synth.relaxSlack = true;  // the benches' default sign-off flow
  const auto design = circuits::synthesize(
      core::makeIsa(8, 2, 1, 4), timing::CellLibrary::generic65(), synth);
  const auto compiled = netlist::CompiledNetlist::compile(design.netlist);
  fault::FaultUniverse universe(compiled);
  fault::PpsfpEngine engine(compiled);
  fault::SerialFaultSimulator serial(compiled);

  std::cout << "design:    " << design.config.name() << "  ("
            << design.netlist.gateCount() << " gates, "
            << design.netlist.netCount() << " nets)\n"
            << "universe:  " << universe.all().size() << " faults -> "
            << universe.collapsed().size() << " collapsed classes\n"
            << "patterns:  " << patterns << "\n\n";

  const std::size_t inputCount = compiled->inputNets().size();
  std::mt19937_64 rng(12345);

  // Correctness gate: sampled faults, one 64-pattern block, every lane.
  {
    std::vector<std::uint64_t> words(inputCount);
    for (auto& w : words) w = rng();
    engine.loadPatterns(words);
    const auto checked = sampleFaults(universe.all(), checkFaults);
    std::vector<std::uint8_t> bits(inputCount);
    std::vector<std::uint64_t> detected(checked.size());
    for (std::size_t fi = 0; fi < checked.size(); ++fi) {
      detected[fi] = engine.detectLanes(checked[fi]);
    }
    for (std::size_t lane = 0; lane < 64; ++lane) {
      for (std::size_t i = 0; i < inputCount; ++i) {
        bits[i] = static_cast<std::uint8_t>((words[i] >> lane) & 1u);
      }
      serial.setPattern(bits);
      for (std::size_t fi = 0; fi < checked.size(); ++fi) {
        if (serial.detects(checked[fi]) !=
            (((detected[fi] >> lane) & 1u) != 0)) {
          std::cerr << "MISMATCH: PPSFP and serial reference disagree on "
                    << fault::describeFault(*compiled, checked[fi])
                    << " lane " << lane << "\n";
          return EXIT_FAILURE;
        }
      }
    }
    std::cout << "self-check: " << checked.size() << " faults x 64 patterns "
              << "match the serial reference\n\n";
  }

  // Serial reference rate: full resimulation per (fault, pattern).
  double serialSec = 0.0;
  std::uint64_t serialFp = 0;
  {
    const auto faults = sampleFaults(universe.all(), serialFaults);
    std::vector<std::uint64_t> words(inputCount);
    for (auto& w : words) w = rng();
    std::vector<std::uint8_t> bits(inputCount);
    std::uint64_t detections = 0;
    const auto start = Clock::now();
    for (std::size_t lane = 0; lane < 64; ++lane) {
      for (std::size_t i = 0; i < inputCount; ++i) {
        bits[i] = static_cast<std::uint8_t>((words[i] >> lane) & 1u);
      }
      serial.setPattern(bits);
      for (const auto& f : faults) {
        detections += serial.detects(f) ? 1 : 0;
      }
    }
    serialSec = secondsSince(start);
    serialFp = faults.size() * 64;
    std::cout << "serial reference:  " << faults.size() << " faults x 64 "
              << "patterns in " << serialSec << " s ("
              << static_cast<double>(serialFp) / serialSec / 1e3
              << " kfault-patterns/s, " << detections << " detections)\n";
  }

  // PPSFP rate: every collapsed class against every pattern block (no
  // dropping — raw engine throughput).
  double ppsfpSec = 0.0;
  std::uint64_t ppsfpFp = 0;
  {
    const auto classes = universe.collapsed();
    const std::uint64_t blocks = (patterns + 63) / 64;
    std::vector<std::uint64_t> words(inputCount);
    std::uint64_t detections = 0;
    const auto start = Clock::now();
    for (std::uint64_t blk = 0; blk < blocks; ++blk) {
      for (auto& w : words) w = rng();
      engine.loadPatterns(words);
      for (const auto& f : classes) {
        detections += std::popcount(engine.detectLanes(f));
      }
    }
    ppsfpSec = secondsSince(start);
    ppsfpFp = classes.size() * blocks * 64;
    std::cout << "PPSFP engine:      " << classes.size() << " classes x "
              << blocks * 64 << " patterns in " << ppsfpSec << " s ("
              << static_cast<double>(ppsfpFp) / ppsfpSec / 1e3
              << " kfault-patterns/s, " << detections
              << " lane detections)\n";
  }

  const double serialRate = static_cast<double>(serialFp) / serialSec;
  const double ppsfpRate = static_cast<double>(ppsfpFp) / ppsfpSec;
  const double speedup = serialRate > 0 ? ppsfpRate / serialRate : 0.0;
  std::cout << "speedup:           " << speedup << "x\n\n";

  // Campaign info (fault dropping on): the coverage this workload reaches.
  fault::CoverageOptions coverage;
  coverage.patterns = patterns;
  coverage.seed = 7;
  const auto cov =
      fault::runRandomCoverage(universe, *fault::makePpsfpEngine(compiled),
                               coverage);
  std::cout << "random-pattern coverage: " << cov.detectedClasses << " / "
            << cov.collapsedClasses << " classes ("
            << cov.coverage() * 100.0 << "% after " << cov.patternsApplied
            << " patterns)\n";

  oisa::bench::BenchJson json("micro_fault_sim");
  json.add("design", design.config.name())
      .add("gates", static_cast<std::uint64_t>(design.netlist.gateCount()))
      .add("universe_faults",
           static_cast<std::uint64_t>(universe.all().size()))
      .add("collapsed_classes",
           static_cast<std::uint64_t>(universe.collapsed().size()))
      .add("patterns", patterns)
      .add("serial_fault_patterns_per_sec", serialRate)
      .add("ppsfp_fault_patterns_per_sec", ppsfpRate)
      .add("coverage_percent", cov.coverage() * 100.0);
  return oisa::bench::finishSpeedupBench(json, args, speedup, minSpeedup);
}

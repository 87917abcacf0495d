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
// Usage: micro_fault_sim [--min-speedup=X] [--json=path] [--threads=N]
#include <bit>
#include <cstdlib>
#include <iostream>
#include <random>
#include <span>
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

constexpr std::uint64_t kPatterns = 4096;  // PPSFP patterns per timed run
constexpr std::size_t kSerialFaults = 192;  // x 64 patterns per serial run
constexpr std::size_t kCheckFaults = 200;
constexpr std::size_t kPairs = 9;

int main(int argc, char** argv) {
  using namespace oisa;
  return experiments::runGuarded([&] {
    const experiments::ArgParser args(argc, argv);
    const bench::GateOptions gate = bench::gateOptions(args);
    args.rejectUnread();

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
              << "patterns:  " << kPatterns << " per PPSFP run, " << kPairs
              << " pairs\n\n";

    const std::size_t inputCount = compiled->inputNets().size();
    std::mt19937_64 rng(12345);

    // Correctness gate: sampled faults, one 64-pattern block, every lane.
    {
      std::vector<std::uint64_t> words(inputCount);
      for (auto& w : words) w = rng();
      engine.loadPatterns(words);
      const auto checked = sampleFaults(universe.all(), kCheckFaults);
      std::vector<std::uint8_t> bits(inputCount);
      std::vector<std::uint64_t> detected(checked.size());
      for (std::size_t fi = 0; fi < checked.size(); ++fi) {
        engine.detectLanesInto(checked[fi], std::span(&detected[fi], 1));
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
      std::cout << "self-check: " << checked.size() << " faults x 64 "
                << "patterns match the serial reference\n\n";
    }

    // Pre-drawn patterns, so both runs time pure fault simulation: one
    // 64-pattern block for the serial reference, kPatterns / 64 blocks for
    // the engine.
    const auto serialSample = sampleFaults(universe.all(), kSerialFaults);
    const auto classes = universe.collapsed();
    const std::uint64_t blocks = kPatterns / 64;
    std::vector<std::uint64_t> serialWords(inputCount);
    for (auto& w : serialWords) w = rng();
    std::vector<std::uint64_t> blockWords(blocks * inputCount);
    for (auto& w : blockWords) w = rng();

    // The serial reference resimulates every (fault, pattern); the engine
    // runs every collapsed class against every block (no dropping — raw
    // engine throughput).
    std::uint64_t serialDetections = 0;
    std::uint64_t ppsfpDetections = 0;
    std::vector<std::uint8_t> bits(inputCount);
    const bench::PairTiming timing = bench::timePairs(
        kPairs,
        [&] {
          serialDetections = 0;
          for (std::size_t lane = 0; lane < 64; ++lane) {
            for (std::size_t i = 0; i < inputCount; ++i) {
              bits[i] =
                  static_cast<std::uint8_t>((serialWords[i] >> lane) & 1u);
            }
            serial.setPattern(bits);
            for (const auto& f : serialSample) {
              serialDetections += serial.detects(f) ? 1 : 0;
            }
          }
        },
        [&] {
          ppsfpDetections = 0;
          std::uint64_t detected = 0;
          for (std::uint64_t blk = 0; blk < blocks; ++blk) {
            engine.loadPatterns(
                {blockWords.data() + blk * inputCount, inputCount});
            for (const auto& f : classes) {
              engine.detectLanesInto(f, std::span(&detected, 1));
              ppsfpDetections += std::popcount(detected);
            }
          }
        });

    const auto serialFp = static_cast<double>(serialSample.size() * 64);
    const auto ppsfpFp = static_cast<double>(classes.size() * kPatterns);
    const double serialRate = serialFp / timing.referenceSec;
    const double ppsfpRate = ppsfpFp / timing.contenderSec;
    // The sides simulate different fault-pattern counts: scale the median
    // pair ratio of seconds to one of fault-patterns per second.
    const double speedup = timing.speedup * ppsfpFp / serialFp;
    std::cout << "serial reference:  " << serialSample.size()
              << " faults x 64 patterns in " << timing.referenceSec << " s ("
              << serialRate / 1e3 << " kfault-patterns/s, "
              << serialDetections << " detections)\n"
              << "PPSFP engine:      " << classes.size() << " classes x "
              << kPatterns << " patterns in " << timing.contenderSec << " s ("
              << ppsfpRate / 1e3 << " kfault-patterns/s, " << ppsfpDetections
              << " lane detections)\n";

    // Campaign info (fault dropping on): the coverage this workload reaches.
    fault::CoverageOptions coverage;
    coverage.patterns = kPatterns;
    coverage.seed = 7;
    const auto cov = fault::runRandomCoverage(
        universe, *fault::makePpsfpEngine(compiled), coverage);
    std::cout << "random-pattern coverage: " << cov.detectedClasses << " / "
              << cov.collapsedClasses << " classes ("
              << cov.coverage() * 100.0 << "% after " << cov.patternsApplied
              << " patterns)\n";

    bench::BenchJson json("micro_fault_sim");
    json.add("design", design.config.name())
        .add("gates", static_cast<std::uint64_t>(design.netlist.gateCount()))
        .add("universe_faults",
             static_cast<std::uint64_t>(universe.all().size()))
        .add("collapsed_classes",
             static_cast<std::uint64_t>(universe.collapsed().size()))
        .add("patterns", kPatterns)
        .add("serial_fault_patterns_per_sec", serialRate)
        .add("ppsfp_fault_patterns_per_sec", ppsfpRate)
        .add("coverage_percent", cov.coverage() * 100.0);
    return bench::finishSpeedupBench(json, gate, speedup, kPairs);
  });
}

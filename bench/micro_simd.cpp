// Raw data-plane throughput of the LaneBlock<W> batch evaluator across
// every variant this build + CPU can run: the 64-lane uint64 reference
// against the 256-lane (AVX2) and 512-lane (AVX-512) variants the runtime
// dispatcher (netlist/lane_width.h) builds. The acceptance gate for the
// SIMD substrate is >= 2x gate-evaluation throughput at 256-avx2 over
// W=64 (--min-speedup=2 in CI); 512-avx512 is reported alongside.
//
// Self-checking: before any timing is reported, every wide variant must
// reproduce the 64-lane reference bit-for-bit on the same stimulus —
// sub-word j of a wide net is lanes [64j, 64j + 64), so slicing at a
// stride is the whole comparison (tests/lane_width_test.cpp carries the
// exhaustive differential suite; this is the smoke version).
//
// Usage: micro_simd [--iters=N] [--check-iters=N] [--min-speedup=X]
//                   [--json=path]
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <random>
#include <vector>

#include "circuits/synthesis.h"
#include "core/isa_config.h"
#include "experiments/cli.h"
#include "netlist/compiled_netlist.h"
#include "netlist/lane_width.h"
#include "timing/cell_library.h"

#include "bench_common.h"

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// A pool of pre-drawn stimulus planes so the timed loop measures gate
// evaluation, not RNG. Plane p for a k-words-per-net variant is the
// 1-word plane repeated k times per input: every 64-lane sub-block of the
// wide run carries the same stimulus as reference iteration p, which is
// what makes the checksum comparable across widths.
std::vector<std::uint64_t> stimulusPool(std::size_t inputCount,
                                        std::size_t planes,
                                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> pool(inputCount * planes);
  for (auto& w : pool) w = rng();
  return pool;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);
  const std::uint64_t iters = args.getU64("iters", 20000);
  const std::uint64_t checkIters =
      args.getU64("check-iters", std::min<std::uint64_t>(iters, 256));
  const double minSpeedup = args.getDouble("min-speedup", 0.0);
  constexpr std::size_t kPlanes = 64;

  circuits::SynthesisOptions synth;
  synth.relaxSlack = true;
  const auto design = circuits::synthesize(
      core::makeIsa(8, 2, 1, 4), timing::CellLibrary::generic65(), synth);
  const auto compiled = netlist::CompiledNetlist::compile(design.netlist);
  const std::size_t inputs = compiled->inputNets().size();
  const std::size_t gates = design.netlist.gateCount();
  const auto pool = stimulusPool(inputs, kPlanes, 99);

  const netlist::LaneSelection reference{};
  const auto selections = netlist::availableLaneSelections();
  std::cout << "design:  " << design.config.name() << "  (" << gates
            << " gates, " << inputs << " inputs)\niters:   " << iters
            << " block evaluations per variant\nvariants:";
  for (const auto sel : selections) {
    std::cout << ' ' << netlist::laneSelectionName(sel);
  }
  std::cout << "\n\n";

  // Correctness gate: every variant, same stimulus, identical output words
  // in every 64-lane sub-block.
  const auto refEval = netlist::makeBatchEvaluator(compiled, reference);
  {
    std::vector<std::uint64_t> refOut;
    std::vector<std::uint64_t> wideOut;
    std::vector<std::uint64_t> wideIn;
    for (const auto sel : selections) {
      const auto eval = netlist::makeBatchEvaluator(compiled, sel);
      const std::size_t kW = eval->wordsPerNet();
      for (std::uint64_t it = 0; it < checkIters; ++it) {
        const std::uint64_t* plane = pool.data() + (it % kPlanes) * inputs;
        refEval->evaluateOutputsInto({plane, inputs}, refOut);
        wideIn.assign(inputs * kW, 0);
        for (std::size_t i = 0; i < inputs; ++i) {
          for (std::size_t j = 0; j < kW; ++j) wideIn[i * kW + j] = plane[i];
        }
        eval->evaluateOutputsInto(wideIn, wideOut);
        for (std::size_t o = 0; o < refOut.size(); ++o) {
          for (std::size_t j = 0; j < kW; ++j) {
            if (wideOut[o * kW + j] != refOut[o]) {
              std::cerr << "MISMATCH: " << netlist::laneSelectionName(sel)
                        << " output " << o << " sub-word " << j
                        << " diverges from the 64-lane reference at "
                        << "iteration " << it << "\n";
              return EXIT_FAILURE;
            }
          }
        }
      }
    }
  }

  // Timed runs: gate-evaluations/sec = gates * lanes * iters / seconds.
  bench::BenchJson json("micro_simd");
  json.add("design", design.config.name())
      .add("gates", static_cast<std::uint64_t>(gates))
      .add("iters", iters);
  double refRate = 0.0;
  double rate256 = 0.0;
  std::uint64_t refChecksum = 0;
  for (const auto sel : selections) {
    const auto eval = netlist::makeBatchEvaluator(compiled, sel);
    const std::size_t kW = eval->wordsPerNet();
    std::vector<std::uint64_t> wideIn(inputs * kW);
    std::vector<std::uint64_t> out;
    std::uint64_t checksum = 0;
    const auto start = Clock::now();
    for (std::uint64_t it = 0; it < iters; ++it) {
      const std::uint64_t* plane = pool.data() + (it % kPlanes) * inputs;
      for (std::size_t i = 0; i < inputs; ++i) {
        for (std::size_t j = 0; j < kW; ++j) wideIn[i * kW + j] = plane[i];
      }
      eval->evaluateOutputsInto(wideIn, out);
      for (std::size_t o = 0; o < out.size(); o += kW) checksum += out[o];
    }
    const double sec = secondsSince(start);
    if (sel == reference) {
      refChecksum = checksum;
    } else if (checksum != refChecksum) {
      // Sub-word 0 of every output sees the reference stimulus, so the
      // folded checksum must agree exactly across variants.
      std::cerr << "MISMATCH: timed " << netlist::laneSelectionName(sel)
                << " checksum diverges from the reference\n";
      return EXIT_FAILURE;
    }
    const double rate =
        static_cast<double>(iters) * static_cast<double>(gates) *
        static_cast<double>(eval->lanes()) / sec;
    if (sel == reference) refRate = rate;
    if (sel.arch == netlist::LaneArch::Avx2) rate256 = rate;
    const std::string name = netlist::laneSelectionName(sel);
    std::cout << name << ":  " << sec << " s  (" << rate / 1e9
              << " Ggate-evals/s, " << (refRate > 0 ? rate / refRate : 1.0)
              << "x vs 64)\n";
    json.add("geps_" + name, rate);
  }

  // Headline + CI gate: the 256-lane vector variant against the 64-lane
  // reference. Without AVX2 in the build/CPU there is nothing to gate —
  // report 0 and let CI skip the assertion on such hosts.
  const double speedup = refRate > 0 && rate256 > 0 ? rate256 / refRate : 0.0;
  std::cout << "\nspeedup (256 vs 64): " << speedup << "x\n";
  json.add("ref_gate_evals_per_sec", refRate);
  return bench::finishSpeedupBench(json, args, speedup, minSpeedup);
}

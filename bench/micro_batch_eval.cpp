// Throughput of the word-parallel BatchEvaluator against the per-pattern
// scalar Evaluator on a 32-bit ISA netlist (the acceptance benchmark for
// the batch engine: >= 8x is expected; ~20-50x is typical since one
// 64-lane sweep costs about as much as one scalar sweep).
//
// Self-checking: both paths must produce identical outputs before any
// timing is reported, and in every timed run.
//
// Usage: micro_batch_eval [--min-speedup=X] [--json=path] [--threads=N]
#include <bit>
#include <cstdlib>
#include <iostream>
#include <random>
#include <vector>

#include "circuits/isa_netlist.h"
#include "core/isa_config.h"
#include "experiments/cli.h"
#include "netlist/batch_evaluator.h"
#include "reference/evaluator.h"

#include "bench_common.h"

constexpr std::uint64_t kBatches = 512;  // 64 patterns each, per timed run
constexpr std::size_t kPairs = 11;

int main(int argc, char** argv) {
  using namespace oisa;
  return experiments::runGuarded([&] {
    const experiments::ArgParser args(argc, argv);
    const bench::GateOptions gate = bench::gateOptions(args);
    args.rejectUnread();

    const auto cfg = core::makeIsa(8, 2, 1, 4);  // 32-bit paper design
    const auto nl = circuits::buildIsaNetlist(cfg);
    const netlist::Evaluator scalar(nl);
    const netlist::BatchEvaluator batch(nl);
    const std::size_t inputCount = nl.primaryInputs().size();
    const std::uint64_t patterns = kBatches * 64;

    // Pre-generate the stimulus (lane-major words for the batch path, the
    // same bits unpacked per pattern for the scalar path) so both runs
    // time pure evaluation, not random-number generation.
    std::mt19937_64 rng(123);
    std::vector<std::vector<std::uint64_t>> batchInputs(kBatches);
    for (auto& words : batchInputs) {
      words.resize(inputCount);
      for (auto& w : words) w = rng();
    }

    std::cout << "netlist: " << cfg.name() << "  (" << nl.gateCount()
              << " gates, " << inputCount << " inputs)\n"
              << "patterns: " << patterns << " per run, " << kPairs
              << " pairs\n\n";

    // Correctness gate: the batch path must agree with the scalar path.
    std::vector<std::uint8_t> in(inputCount);
    {
      const auto outWords = batch.evaluateOutputs(batchInputs[0]);
      for (const std::size_t lane : {std::size_t{0}, std::size_t{63}}) {
        for (std::size_t i = 0; i < inputCount; ++i) {
          in[i] = static_cast<std::uint8_t>((batchInputs[0][i] >> lane) & 1u);
        }
        const auto scalarOut = scalar.evaluateOutputs(in);
        for (std::size_t o = 0; o < scalarOut.size(); ++o) {
          if (((outWords[o] >> lane) & 1u) != scalarOut[o]) {
            std::cerr << "MISMATCH: batch and scalar disagree (lane " << lane
                      << ", output " << o << ")\n";
            return EXIT_FAILURE;
          }
        }
      }
    }

    // The scalar path's byte vectors (flat buffer, one span per pattern).
    std::vector<std::uint8_t> scalarInputs(patterns * inputCount);
    {
      std::size_t pattern = 0;
      for (const auto& words : batchInputs) {
        for (std::size_t lane = 0; lane < 64; ++lane, ++pattern) {
          std::uint8_t* dst = scalarInputs.data() + pattern * inputCount;
          for (std::size_t i = 0; i < inputCount; ++i) {
            dst[i] = static_cast<std::uint8_t>((words[i] >> lane) & 1u);
          }
        }
      }
    }

    std::uint64_t scalarOnes = 0;
    std::uint64_t batchOnes = 0;
    std::vector<std::uint64_t> values;
    const auto outputs = nl.primaryOutputs();
    const bench::PairTiming timing = bench::timePairs(
        kPairs,
        [&] {
          scalarOnes = 0;
          for (std::uint64_t p = 0; p < patterns; ++p) {
            const auto out = scalar.evaluateOutputs(
                {scalarInputs.data() + p * inputCount, inputCount});
            scalarOnes += out.back();
          }
        },
        [&] {
          batchOnes = 0;
          for (const auto& words : batchInputs) {
            batch.evaluateInto(words, values);
            batchOnes += std::popcount(values[outputs.back().value]);
          }
        });
    if (scalarOnes != batchOnes) {
      std::cerr << "MISMATCH: timed runs disagree on the last output\n";
      return EXIT_FAILURE;
    }

    const auto total = static_cast<double>(patterns);
    const double scalarRate = total / timing.referenceSec;
    const double batchRate = total / timing.contenderSec;
    std::cout << "scalar Evaluator:  " << timing.referenceSec << " s  ("
              << scalarRate / 1e6 << " Mpatterns/s)\n"
              << "BatchEvaluator:    " << timing.contenderSec << " s  ("
              << batchRate / 1e6 << " Mpatterns/s)\n"
              << "(last output set in " << batchOnes << " patterns)\n";

    bench::BenchJson json("micro_batch_eval");
    json.add("design", cfg.name())
        .add("gates", static_cast<std::uint64_t>(nl.gateCount()))
        .add("patterns", patterns)
        .add("scalar_patterns_per_sec", scalarRate)
        .add("batch_patterns_per_sec", batchRate);
    return bench::finishSpeedupBench(json, gate, timing.speedup, kPairs);
  });
}

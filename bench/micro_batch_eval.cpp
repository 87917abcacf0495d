// Throughput of the word-parallel BatchEvaluator against the per-pattern
// scalar Evaluator on a 32-bit ISA netlist (the acceptance benchmark for
// the batch engine: >= 8x is expected; ~20-50x is typical since one
// 64-lane sweep costs about as much as one scalar sweep).
//
// Self-checking: both paths must produce identical outputs before any
// timing is reported, and the final checksum keeps the compiler honest.
//
// Usage: micro_batch_eval [--patterns=N] [--design=block,spec,corr,red]
//                         [--min-speedup=X] [--json=path]
#include <chrono>
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

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const oisa::experiments::ArgParser args(argc, argv);
  const std::uint64_t patterns = args.getU64("patterns", 1u << 18);
  const double minSpeedup = args.getDouble("min-speedup", 0.0);

  const auto cfg = oisa::core::makeIsa(8, 2, 1, 4);  // 32-bit paper design
  const auto nl = oisa::circuits::buildIsaNetlist(cfg);
  const oisa::netlist::Evaluator scalar(nl);
  const oisa::netlist::BatchEvaluator batch(nl);
  const std::size_t inputCount = nl.primaryInputs().size();

  // Pre-generate the stimulus (lane-major words for the batch path, the
  // same bits unpacked per pattern for the scalar path) so both loops time
  // pure evaluation, not random-number generation.
  const std::uint64_t batches =
      (patterns + oisa::netlist::BatchEvaluator::kLanes - 1) /
      oisa::netlist::BatchEvaluator::kLanes;
  std::mt19937_64 rng(123);
  std::vector<std::vector<std::uint64_t>> batchInputs(batches);
  for (auto& words : batchInputs) {
    words.resize(inputCount);
    for (auto& w : words) w = rng();
  }

  std::cout << "netlist: " << cfg.name() << "  (" << nl.gateCount()
            << " gates, " << inputCount << " inputs)\n"
            << "patterns: " << batches * 64 << "\n\n";

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

  // Pre-unpack the scalar path's byte vectors (flat buffer, one span per
  // pattern) so both timed loops measure pure evaluation.
  std::vector<std::uint8_t> scalarInputs(batches * 64 * inputCount);
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

  std::uint64_t checksum = 0;

  const auto scalarStart = Clock::now();
  for (std::uint64_t p = 0; p < batches * 64; ++p) {
    const auto out = scalar.evaluateOutputs(
        {scalarInputs.data() + p * inputCount, inputCount});
    checksum += out.back();
  }
  const double scalarSec = secondsSince(scalarStart);

  const auto batchStart = Clock::now();
  std::vector<std::uint64_t> values;
  const auto outputs = nl.primaryOutputs();
  for (const auto& words : batchInputs) {
    batch.evaluateInto(words, values);
    checksum += values[outputs.back().value];
  }
  const double batchSec = secondsSince(batchStart);

  const double total = static_cast<double>(batches * 64);
  const double scalarRate = total / scalarSec;
  const double batchRate = total / batchSec;
  const double speedup = scalarRate > 0 ? batchRate / scalarRate : 0.0;
  std::cout << "scalar Evaluator:  " << scalarSec << " s  ("
            << scalarRate / 1e6 << " Mpatterns/s)\n"
            << "BatchEvaluator:    " << batchSec << " s  ("
            << batchRate / 1e6 << " Mpatterns/s)\n"
            << "speedup:           " << speedup << "x\n"
            << "(checksum " << (checksum & 0xffff) << ")\n";

  oisa::bench::BenchJson json("micro_batch_eval");
  json.add("design", cfg.name())
      .add("gates", static_cast<std::uint64_t>(nl.gateCount()))
      .add("patterns", batches * 64)
      .add("scalar_patterns_per_sec", scalarRate)
      .add("batch_patterns_per_sec", batchRate);
  return oisa::bench::finishSpeedupBench(json, args, speedup, minSpeedup);
}

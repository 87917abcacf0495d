// Throughput of the flat-bank batch-64 predictFlipsBlock hot path against the
// scalar path (per-record byte-feature extraction + one-row forest walks)
// on the paper's per-bit timing-error model — the acceptance benchmark
// for the flat inference substrate (>= 4x is the CI gate).
//
// Self-checking, in the micro_forest tradition: before any timing is
// reported the paths must agree *exactly* —
//   1. the trained arena must pass structural validation and hold one
//      forest per output bit,
//   2. predictFlipsBlock must match predictFlipsReference lane for lane
//      on every test record pair, including the ragged final block, and
//   3. a binary-envelope round trip (saveFlat -> mmap loadFlat) must
//      reproduce the exact same predictions straight off the mapped file.
//
// Usage: micro_predict [--min-speedup=X] [--json=path] [--threads=N]
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <span>
#include <vector>

#include "experiments/cli.h"
#include "ml/flat_forest.h"
#include "predict/bit_predictor.h"
#include "predict/features.h"

#include "bench_common.h"

namespace {

using oisa::predict::BitLevelPredictor;
using oisa::predict::FeatureExtractor;
using oisa::predict::PredictedFlips;
using oisa::predict::Trace;
using oisa::predict::TraceRecord;

constexpr int kWidth = 32;
constexpr std::uint64_t kTrainCycles = 6000;
constexpr std::uint64_t kTestCycles = 10000;  // per timed run
constexpr std::size_t kTrees = 10;
constexpr int kDepth = 10;
constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kPairs = 9;

/// Folds a prediction into a checksum (keeps the timed loops observable).
std::uint64_t fold(std::uint64_t acc, const PredictedFlips& f) {
  return acc * 0x100000001b3ull ^ f.sumFlips ^ (f.coutFlip ? 1u : 0u);
}

/// Runs predictFlipsBlock over the whole trace in 64-pair blocks (final
/// block ragged) and returns the prediction checksum.
std::uint64_t runBlocks(const BitLevelPredictor& predictor, const Trace& trace,
                        std::span<PredictedFlips> out) {
  const std::size_t rows = trace.size() - 1;
  const std::span<const TraceRecord> records(trace);
  for (std::size_t base = 0; base < rows; base += 64) {
    const std::size_t n = std::min<std::size_t>(64, rows - base);
    predictor.predictFlipsBlock(records.subspan(base, n + 1),
                                out.subspan(base, n));
  }
  std::uint64_t acc = 0;
  for (const PredictedFlips& f : out) acc = fold(acc, f);
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oisa;
  return experiments::runGuarded([&] {
    const experiments::ArgParser args(argc, argv);
    const bench::GateOptions gate = bench::gateOptions(args);
    args.rejectUnread();

    const int width = kWidth;
    const std::string modelPath =
        (std::filesystem::temp_directory_path() / "micro_predict_bank.ffb")
            .string();
    predict::PredictorParams params;
    params.forest.treeCount = kTrees;
    params.forest.tree.maxDepth = kDepth;
    params.seed = kSeed;

    const Trace trainTrace = bench::makeTrace(width, kTrainCycles, kSeed + 101);
    const Trace testTrace = bench::makeTrace(width, kTestCycles, kSeed + 202);
    const std::size_t rows = testTrace.size() - 1;

    BitLevelPredictor predictor(width, params);
    predictor.fit(trainTrace);
    const int bits = predictor.extractor().outputBitCount();

    std::cout << "trace:  width " << width << " (" << bits
              << " output bits), train " << kTrainCycles << " / predict "
              << rows << " record pairs per run, " << kPairs
              << " pairs\nmodel:  " << params.forest.treeCount
              << " trees/forest, depth " << params.forest.tree.maxDepth
              << ", features " << predictor.extractor().featureCount()
              << "\n\n";

    // -----------------------------------------------------------------
    // Correctness gate 1: the grown arena is structurally sound (children
    // follow parents, features in range) with one forest per output bit.
    // -----------------------------------------------------------------
    const ml::FlatBankView flat = predictor.flatView();
    if (core::Status s = ml::validateFlatBank(flat); !s.isOk()) {
      std::cerr << "MISMATCH: flat bank fails validation: " << s.toString()
                << "\n";
      return EXIT_FAILURE;
    }
    if (flat.forestCount() != static_cast<std::size_t>(bits)) {
      std::cerr << "MISMATCH: flat bank has " << flat.forestCount()
                << " forests, want " << bits << "\n";
      return EXIT_FAILURE;
    }

    // -----------------------------------------------------------------
    // Correctness gate 2: block path == scalar reference path, lane for
    // lane, over every record pair (the final block is ragged unless the
    // row count happens to be a multiple of 64).
    // -----------------------------------------------------------------
    std::vector<PredictedFlips> blockFlips(rows);
    const std::uint64_t blockSum = runBlocks(predictor, testTrace, blockFlips);
    for (std::size_t r = 0; r < rows; ++r) {
      const PredictedFlips ref =
          predictor.predictFlipsReference(testTrace[r], testTrace[r + 1]);
      if (ref.sumFlips != blockFlips[r].sumFlips ||
          ref.coutFlip != blockFlips[r].coutFlip) {
        std::cerr << "MISMATCH: block and scalar predictions disagree at "
                     "row " << r << "\n";
        return EXIT_FAILURE;
      }
    }

    // -----------------------------------------------------------------
    // Correctness gate 3: binary envelope round trip. The mmap-loaded
    // bank must reproduce the exact same predictions off the file bytes.
    // -----------------------------------------------------------------
    core::throwIfError(predictor.saveFlat(modelPath));
    std::optional<BitLevelPredictor> mapped;
    const double loadSec = bench::seconds([&] {
      mapped = BitLevelPredictor::loadFlat(modelPath).valueOrThrow();
    });
    std::vector<PredictedFlips> mappedFlips(rows);
    const std::uint64_t mappedSum = runBlocks(*mapped, testTrace, mappedFlips);
    if (mappedSum != blockSum) {
      std::cerr << "MISMATCH: mmap-loaded bank predictions differ\n";
      return EXIT_FAILURE;
    }
    const auto modelBytes = std::filesystem::file_size(modelPath);
    std::remove(modelPath.c_str());

    // -----------------------------------------------------------------
    // Timed runs: the reference is the scalar predictFlipsReference
    // shape, the contender the flat batch-64 block path.
    // -----------------------------------------------------------------
    std::uint64_t refSum = 0;
    std::uint64_t timedBlockSum = 0;
    const bench::PairTiming timing = bench::timePairs(
        kPairs,
        [&] {
          std::uint64_t acc = 0;
          for (std::size_t t = 0; t < rows; ++t) {
            acc = fold(acc, predictor.predictFlipsReference(
                                testTrace[t], testTrace[t + 1]));
          }
          refSum = acc;
        },
        [&] { timedBlockSum = runBlocks(predictor, testTrace, blockFlips); });
    if (refSum != blockSum || timedBlockSum != blockSum) {
      std::cerr << "MISMATCH: timed-loop checksums diverged\n";
      return EXIT_FAILURE;
    }

    const double refSec = timing.referenceSec;
    const double flatSec = timing.contenderSec;
    const double speedup = timing.speedup;
    const double nsPerRecordRef = refSec / static_cast<double>(rows) * 1e9;
    const double nsPerRecordFlat = flatSec / static_cast<double>(rows) * 1e9;

    std::cout << "flat bank: " << flat.nodeCount() << " nodes / "
              << flat.roots.size() << " trees in one arena ("
              << modelBytes << " bytes on disk, mmap load " << loadSec * 1e3
              << " ms)\npredictions agree: " << rows
              << " record pairs lane-for-lane, scalar vs block vs mmap\n\n"
              << "scalar reference: " << refSec << " s  (" << nsPerRecordRef
              << " ns/record)\nflat block-64:    " << flatSec << " s  ("
              << nsPerRecordFlat << " ns/record)\n";

    bench::BenchJson json("micro_predict");
    json.add("width", static_cast<std::uint64_t>(width))
        .add("train_cycles", kTrainCycles)
        .add("record_pairs", static_cast<std::uint64_t>(rows))
        .add("trees", params.forest.treeCount)
        .add("flat_nodes", static_cast<std::uint64_t>(flat.nodeCount()))
        .add("model_bytes", static_cast<std::uint64_t>(modelBytes))
        .add("load_sec", loadSec)
        .add("ref_sec", refSec)
        .add("flat_sec", flatSec)
        .add("ns_per_record_ref", nsPerRecordRef)
        .add("ns_per_record_flat", nsPerRecordFlat);
    return bench::finishSpeedupBench(json, gate, speedup, kPairs);
  });
}

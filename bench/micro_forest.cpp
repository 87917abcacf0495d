// Throughput of the packed ML substrate against the seed per-row pipeline
// on the paper's per-bit timing-error model (33 forests on a 32-bit-wide
// trace) — the acceptance benchmark for the bit-packed CART rework (>= 12x
// combined train+predict is the CI gate).
//
// Self-checking, in the micro_timed_sim tradition: before any timing is
// reported the two substrates must agree *exactly* —
//   1. the packed popcount grower must append an arena identical to the
//      retained row-scan reference grower's (addForestReference) for
//      every per-bit forest, and
//   2. the 64-lane masked forest walk must match the scalar per-row walk
//      lane for lane on every test cycle and output bit, and
//   3. the batched evaluate() metrics must equal the scalar per-cycle
//      pipeline's ABPER/AVPE bit for bit.
//
// The reference timing loops reproduce the seed pipeline faithfully: one
// Dataset extraction per output bit (the 33x-redundant feature matrix) for
// training, and one fresh per-bit feature extraction + scalar forest walk
// per cycle for prediction.
//
// Usage: micro_forest [--min-speedup=X] [--json=path] [--threads=N]
#include <algorithm>
#include <array>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "experiments/cli.h"
#include "ml/flat_forest.h"
#include "predict/bit_predictor.h"
#include "predict/features.h"

#include "bench_common.h"

namespace {

using oisa::predict::FeatureExtractor;
using oisa::predict::Trace;
using oisa::predict::TraceRecord;

constexpr int kWidth = 32;
constexpr std::uint64_t kTrainCycles = 6000;
constexpr std::uint64_t kTestCycles = 3000;
constexpr std::size_t kTrees = 10;
constexpr int kDepth = 10;
constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kPairs = 5;

/// Seed-style per-bit dataset: one full feature extraction per output bit.
oisa::ml::Dataset extractDataset(const FeatureExtractor& fx,
                                 const Trace& trace, int bit) {
  oisa::ml::Dataset data(fx.featureCount());
  data.reserve(trace.size() - 1);
  std::vector<std::uint8_t> row(fx.featureCount());
  for (std::size_t t = 1; t < trace.size(); ++t) {
    fx.extract(trace[t - 1], trace[t], bit, row);
    data.addRow(row, FeatureExtractor::timingErroneous(trace[t], bit,
                                                       fx.width()));
  }
  return data;
}

bool sameArena(const oisa::ml::FlatBankView& a,
               const oisa::ml::FlatBankView& b) {
  return std::ranges::equal(a.feature, b.feature) &&
         std::ranges::equal(a.left, b.left) &&
         std::ranges::equal(a.right, b.right) &&
         std::ranges::equal(a.prob, b.prob) &&
         std::ranges::equal(a.roots, b.roots) &&
         std::ranges::equal(a.forestBegin, b.forestBegin);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oisa;
  return experiments::runGuarded([&] {
  const experiments::ArgParser args(argc, argv);
  const bench::GateOptions gate = bench::gateOptions(args);
  args.rejectUnread();

  const int width = kWidth;
  predict::PredictorParams params;
  params.forest.treeCount = kTrees;
  params.forest.tree.maxDepth = kDepth;
  params.seed = kSeed;

  const Trace trainTrace = bench::makeTrace(width, kTrainCycles, kSeed + 101);
  const Trace testTrace = bench::makeTrace(width, kTestCycles, kSeed + 202);
  const FeatureExtractor fx(width);
  const int bits = fx.outputBitCount();

  std::cout << "trace:  width " << width << " (" << bits
            << " output bits), train " << kTrainCycles << " / test "
            << kTestCycles << " cycles\nmodel:  " << params.forest.treeCount
            << " trees/forest, depth " << params.forest.tree.maxDepth
            << ", features " << fx.featureCount() << "\n" << kPairs
            << " pairs per phase\n\n";

  // Per-bit training seeds, as BitLevelPredictor::fit derives them.
  auto bitSeed = [&](int bit) {
    return params.seed +
           0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(bit + 1);
  };

  // -------------------------------------------------------------------
  // Correctness gate 1: packed grower == reference grower, node for node
  // across the whole arena of every per-bit forest.
  // -------------------------------------------------------------------
  const predict::PackedTraceFeatures packedTrain = fx.packTrace(trainTrace);
  const auto featureCount = static_cast<std::uint32_t>(fx.featureCount());
  ml::FlatForestBank refBank(featureCount);
  ml::FlatForestBank packedBank(featureCount);
  for (int bit = 0; bit < bits; ++bit) {
    refBank.addForestReference(extractDataset(fx, trainTrace, bit),
                               params.forest, bitSeed(bit));
    packedBank.addForest(fx.bitView(packedTrain, bit), params.forest,
                         bitSeed(bit));
  }
  if (!sameArena(refBank.view(), packedBank.view())) {
    std::cerr << "MISMATCH: packed and reference growers disagree\n";
    return EXIT_FAILURE;
  }
  const ml::FlatBankView refView = refBank.view();
  const std::uint64_t nodesCompared = refView.nodeCount();

  // -------------------------------------------------------------------
  // Correctness gate 2: masked lane walk == scalar walk, lane for lane,
  // on every test cycle and output bit.
  // -------------------------------------------------------------------
  const predict::PackedTraceFeatures packedTest = fx.packTrace(testTrace);
  {
    std::vector<std::uint64_t> featureWords(fx.featureCount());
    std::array<double, 64> probs{};
    std::vector<std::uint8_t> row(fx.featureCount());
    const std::size_t shared = packedTest.sharedCount;
    for (std::size_t w = 0; w < packedTest.wordCount; ++w) {
      const std::size_t lanes =
          std::min<std::size_t>(64, packedTest.rowCount - w * 64);
      for (std::size_t f = 0; f < shared; ++f) {
        featureWords[f] = packedTest.shared[f * packedTest.wordCount + w];
      }
      for (int bit = 0; bit < bits; ++bit) {
        const auto b = static_cast<std::size_t>(bit);
        featureWords[shared] =
            packedTest.goldPrev[b * packedTest.wordCount + w];
        featureWords[shared + 1] =
            packedTest.goldCur[b * packedTest.wordCount + w];
        const ml::FlatForest forest(refView, b);
        probs.fill(0.0);
        const std::uint64_t batch = forest.predictWord(featureWords,
                                                       probs.data());
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          const std::size_t t = w * 64 + lane + 1;
          fx.extract(testTrace[t - 1], testTrace[t], bit, row);
          const bool scalar = forest.predict(row);
          if (scalar != (((batch >> lane) & 1u) != 0)) {
            std::cerr << "MISMATCH: batched and scalar inference disagree "
                         "at cycle " << t << ", bit " << bit << "\n";
            return EXIT_FAILURE;
          }
        }
      }
    }
  }

  // -------------------------------------------------------------------
  // Timed runs, each phase in kPairs pairs. Reference = the seed pipeline
  // shape: per-bit Dataset extraction + row-scan training; per-cycle
  // per-bit extraction + scalar forest walks for prediction.
  // -------------------------------------------------------------------
  ml::FlatForestBank timedRef;
  predict::BitLevelPredictor predictor(width, params);
  const bench::PairTiming train = bench::timePairs(
      kPairs,
      [&] {
        timedRef = ml::FlatForestBank(featureCount);
        for (int bit = 0; bit < bits; ++bit) {
          const ml::Dataset data = extractDataset(fx, trainTrace, bit);
          timedRef.addForestReference(data, params.forest, bitSeed(bit));
        }
      },
      [&] { predictor.fit(trainTrace); });
  const ml::FlatBankView timedRefView = timedRef.view();

  std::vector<std::uint64_t> refWrong(static_cast<std::size_t>(bits), 0);
  double refAvpeSum = 0.0;
  std::uint64_t refSkipped = 0;
  predict::PredictorEvaluation eval;
  const auto refPredictPhase = [&] {
    std::fill(refWrong.begin(), refWrong.end(), 0);
    refAvpeSum = 0.0;
    refSkipped = 0;
    for (std::size_t t = 1; t < testTrace.size(); ++t) {
      const TraceRecord& prev = testTrace[t - 1];
      const TraceRecord& cur = testTrace[t];
      std::vector<std::uint8_t> row(fx.featureCount());
      std::uint64_t sumFlips = 0;
      bool coutFlip = false;
      for (int bit = 0; bit < bits; ++bit) {
        fx.extract(prev, cur, bit, row);
        const bool predicted =
            ml::FlatForest(timedRefView, static_cast<std::size_t>(bit))
                .predict(row);
        if (predicted) {
          if (bit == width) {
            coutFlip = true;
          } else {
            sumFlips |= std::uint64_t{1} << bit;
          }
        }
        if (predicted !=
            FeatureExtractor::timingErroneous(cur, bit, width)) {
          ++refWrong[static_cast<std::size_t>(bit)];
        }
      }
      const bool predictedCout = cur.goldCout != coutFlip;
      const std::uint64_t predictedSilver =
          (cur.gold ^ sumFlips) |
          (static_cast<std::uint64_t>(predictedCout ? 1 : 0) << width);
      const std::uint64_t realSilver = cur.silverValue(width);
      if (realSilver == 0) {
        ++refSkipped;
      } else {
        const std::uint64_t diff = predictedSilver >= realSilver
                                       ? predictedSilver - realSilver
                                       : realSilver - predictedSilver;
        refAvpeSum += static_cast<double>(diff) /
                      static_cast<double>(realSilver);
      }
    }
  };
  const bench::PairTiming predict = bench::timePairs(
      kPairs, refPredictPhase, [&] { eval = predictor.evaluate(testTrace); });
  const std::uint64_t refCycles = testTrace.size() - 1;
  // Same summation association as evaluate() (mean of per-bit rates, not
  // totalWrong / (cycles * bits)) — the exact-equality gate below depends
  // on it.
  double refAbperSum = 0.0;
  for (int bit = 0; bit < bits; ++bit) {
    refAbperSum += static_cast<double>(refWrong[static_cast<std::size_t>(bit)]) /
                   static_cast<double>(refCycles);
  }
  const double refAbper = refAbperSum / static_cast<double>(bits);
  const double refAvpe =
      refCycles - refSkipped
          ? refAvpeSum / static_cast<double>(refCycles - refSkipped)
          : 0.0;

  // -------------------------------------------------------------------
  // Correctness gate 3: the batched pipeline's metrics equal the scalar
  // pipeline's, exactly.
  // -------------------------------------------------------------------
  if (eval.abper != refAbper || eval.avpe != refAvpe ||
      eval.cycles != refCycles || eval.avpeSkipped != refSkipped) {
    std::cerr << "MISMATCH: batched evaluate() metrics differ from the "
                 "scalar pipeline (abper " << eval.abper << " vs " << refAbper
              << ", avpe " << eval.avpe << " vs " << refAvpe << ")\n";
    return EXIT_FAILURE;
  }

  // The gate reads the combined train + predict time of pair i on each
  // side, so its ratio is the median of the per-pair combined ratios.
  std::vector<double> refSecs = train.referenceSecs;
  std::vector<double> packedSecs = train.contenderSecs;
  for (std::size_t i = 0; i < kPairs; ++i) {
    refSecs[i] += predict.referenceSecs[i];
    packedSecs[i] += predict.contenderSecs[i];
  }
  const double speedup =
      bench::summarizePairs(std::move(refSecs), std::move(packedSecs))
          .speedup;

  std::cout << "growers agree: " << nodesCompared
            << " nodes node-for-node across " << bits << " forests\n"
            << "inference agrees: " << refCycles << " cycles x " << bits
            << " bits lane-for-lane (abper " << eval.abper << ")\n\n"
            << "reference (seed pipeline): train " << train.referenceSec
            << " s, predict " << predict.referenceSec << " s\n"
            << "packed substrate:          train " << train.contenderSec
            << " s, predict " << predict.contenderSec << " s\n"
            << "phase speedups: train " << train.speedup << "x, predict "
            << predict.speedup << "x\n";

  bench::BenchJson json("micro_forest");
  json.add("width", static_cast<std::uint64_t>(width))
      .add("train_cycles", kTrainCycles)
      .add("test_cycles", kTestCycles)
      .add("trees", params.forest.treeCount)
      .add("nodes_compared", nodesCompared)
      .add("ref_train_sec", train.referenceSec)
      .add("ref_predict_sec", predict.referenceSec)
      .add("packed_train_sec", train.contenderSec)
      .add("packed_predict_sec", predict.contenderSec)
      .add("train_speedup", train.speedup)
      .add("predict_speedup", predict.speedup);
  return bench::finishSpeedupBench(json, gate, speedup, kPairs);
  });
}

// Packed ML substrate tests: the column-major packed dataset view, the
// popcount CART grower's arena equality with the retained row-scan
// reference grower, 64-lane masked inference agreement with the scalar
// walk, and the packed trace feature matrix — on random data and on a
// real collected trace of a synthesized paper design across all 33
// output bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include "circuits/synthesis.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"
#include "ml/dataset.h"
#include "ml/flat_forest.h"
#include "predict/bit_predictor.h"
#include "predict/features.h"

#include "differential_harness.h"

namespace {

using oisa::ml::Dataset;
using oisa::ml::FlatBankView;
using oisa::ml::FlatForest;
using oisa::ml::FlatForestBank;
using oisa::ml::ForestParams;
using oisa::ml::PackedView;
using oisa::ml::TreeParams;
using oisa::predict::BitLevelPredictor;
using oisa::predict::FeatureExtractor;
using oisa::predict::Trace;
using oisa::predict::TraceRecord;

using oisa::testing::randomDataset;

void expectSameArena(const FlatBankView& a, const FlatBankView& b) {
  ASSERT_EQ(a.nodeCount(), b.nodeCount());
  for (std::size_t i = 0; i < a.nodeCount(); ++i) {
    EXPECT_EQ(a.feature[i], b.feature[i]) << "node " << i;
    EXPECT_EQ(a.left[i], b.left[i]) << "node " << i;
    EXPECT_EQ(a.right[i], b.right[i]) << "node " << i;
    EXPECT_EQ(a.prob[i], b.prob[i]) << "node " << i;
  }
  EXPECT_TRUE(std::ranges::equal(a.roots, b.roots));
  EXPECT_TRUE(std::ranges::equal(a.forestBegin, b.forestBegin));
}

FlatForestBank emptyBank(const Dataset& data) {
  return FlatForestBank(static_cast<std::uint32_t>(data.featureCount()));
}

TEST(PackedViewTest, MatchesByteMatrixBitForBit) {
  const Dataset data = randomDataset(201, 13, 5);  // odd row count: tail word
  const PackedView& view = data.packed();
  ASSERT_EQ(view.rowCount, data.rowCount());
  ASSERT_EQ(view.featureCount(), data.featureCount());
  ASSERT_EQ(view.wordCount, (data.rowCount() + 63) / 64);
  for (std::size_t r = 0; r < data.rowCount(); ++r) {
    for (std::size_t f = 0; f < data.featureCount(); ++f) {
      const bool packed =
          ((view.columns[f][r / 64] >> (r % 64)) & 1u) != 0;
      EXPECT_EQ(packed, data.feature(r, f) != 0) << r << "," << f;
    }
    const bool label = ((view.labels[r / 64] >> (r % 64)) & 1u) != 0;
    EXPECT_EQ(label, data.label(r)) << r;
  }
  // Tail bits past rowCount stay zero (trainers rely on it).
  const std::size_t tail = data.rowCount() % 64;
  for (std::size_t f = 0; f < view.featureCount(); ++f) {
    EXPECT_EQ(view.columns[f][view.wordCount - 1] >> tail, 0u);
  }
  EXPECT_EQ(view.positiveCount(), data.positiveCount());
}

TEST(PackedViewTest, CopiesRebuildTheirOwnCache) {
  // The cached view points into the owning Dataset's storage: a copy must
  // not inherit those pointers (it rebuilds over its own rows), and the
  // copy stays correct after the source is mutated or destroyed.
  auto source = std::make_unique<Dataset>(randomDataset(70, 5, 99));
  (void)source->packed();  // populate the source's cache first
  Dataset copy = *source;
  Dataset assigned(1);
  assigned = *source;
  source->addRow(std::vector<std::uint8_t>(5, 1), true);
  source.reset();
  for (Dataset* d : {&copy, &assigned}) {
    const PackedView& view = d->packed();
    ASSERT_EQ(view.rowCount, 70u);
    for (std::size_t r = 0; r < d->rowCount(); ++r) {
      for (std::size_t f = 0; f < d->featureCount(); ++f) {
        ASSERT_EQ(((view.columns[f][r / 64] >> (r % 64)) & 1u) != 0,
                  d->feature(r, f) != 0);
      }
    }
  }
}

TEST(PackedViewTest, CacheInvalidatedByAddRow) {
  Dataset data(2);
  data.addRow(std::vector<std::uint8_t>{1, 0}, true);
  EXPECT_EQ(data.packed().rowCount, 1u);
  data.addRow(std::vector<std::uint8_t>{0, 1}, false);
  EXPECT_EQ(data.packed().rowCount, 2u);
  EXPECT_EQ(data.packed().positiveCount(), 1u);
}

TEST(PackedTrainerTest, MatchesReferenceAcrossRandomDatasets) {
  // Property: identical arenas for the same rows, params and rng seed,
  // across dataset shapes and growth-control corners.
  const TreeParams paramSets[] = {
      TreeParams{},                 // defaults
      TreeParams{3, 4, 1, 0},       // shallow
      TreeParams{12, 2, 3, 4},      // feature subsampling + leaf minimum
      TreeParams{20, 8, 1, 5},      // deep, subsampled
  };
  std::uint64_t seed = 1000;
  for (const std::size_t rows : {5u, 64u, 65u, 300u}) {
    for (const std::size_t features : {3u, 17u}) {
      const Dataset data = randomDataset(rows, features, ++seed);
      std::vector<std::uint32_t> all(data.rowCount());
      std::iota(all.begin(), all.end(), 0u);
      FlatForestBank packed = emptyBank(data);
      FlatForestBank reference = emptyBank(data);
      for (const TreeParams& params : paramSets) {
        std::mt19937_64 rngA(seed), rngB(seed);
        packed.addTree(data.packed(), all, params, rngA);
        reference.addTreeReference(data, all, params, rngB);
      }
      expectSameArena(packed.view(), reference.view());
    }
  }
}

TEST(PackedTrainerTest, MatchesReferenceOnBootstrapMultisets) {
  // Duplicate row indices (the bootstrap case) carry multiplicity, which
  // the packed grower encodes as bit-planes — counts must match the
  // reference multiset semantics exactly.
  const Dataset data = randomDataset(150, 9, 77);
  std::mt19937_64 sampler(3);
  FlatForestBank packed = emptyBank(data);
  FlatForestBank reference = emptyBank(data);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::uint32_t> rows(200);
    std::uniform_int_distribution<std::uint32_t> pick(0, 149);
    for (auto& r : rows) r = pick(sampler);
    TreeParams params;
    params.featuresPerSplit = 3;
    std::mt19937_64 rngA(42 + trial), rngB(42 + trial);
    packed.addTree(data.packed(), rows, params, rngA);
    reference.addTreeReference(data, rows, params, rngB);
  }
  expectSameArena(packed.view(), reference.view());
}

TEST(PackedTrainerTest, RejectsBadRows) {
  const Dataset data = randomDataset(10, 4, 9);
  FlatForestBank bank = emptyBank(data);
  std::mt19937_64 rng(1);
  const std::vector<std::uint32_t> empty;
  EXPECT_THROW(bank.addTree(data.packed(), empty, TreeParams{}, rng),
               std::invalid_argument);
  const std::vector<std::uint32_t> outOfRange{0, 10};
  EXPECT_THROW(bank.addTree(data.packed(), outOfRange, TreeParams{}, rng),
               std::out_of_range);
}

TEST(PackedForestTest, FitMatchesReferenceTreeForTree) {
  const Dataset data = randomDataset(400, 12, 21);
  ForestParams params;
  params.treeCount = 7;
  FlatForestBank packed = emptyBank(data);
  FlatForestBank reference = emptyBank(data);
  packed.addForest(data.packed(), params, 33);
  reference.addForestReference(data, params, 33);
  ASSERT_EQ(packed.view().roots.size(), 7u);
  expectSameArena(packed.view(), reference.view());
}

TEST(PackedForestTest, ConstantLabelShortcutMatchesReference) {
  Dataset data(4);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> row(4);
    for (auto& v : row) v = static_cast<std::uint8_t>(rng() & 1);
    data.addRow(row, true);
  }
  FlatForestBank packed = emptyBank(data);
  FlatForestBank reference = emptyBank(data);
  packed.addForest(data.packed(), ForestParams{}, 2);
  reference.addForestReference(data, ForestParams{}, 2);
  ASSERT_EQ(packed.view().roots.size(), 1u);
  expectSameArena(packed.view(), reference.view());
}

// Lane-major feature words for rows [base, base+64) of a dataset.
std::vector<std::uint64_t> laneWords(const Dataset& data, std::size_t base) {
  std::vector<std::uint64_t> words(data.featureCount(), 0);
  for (std::size_t lane = 0; lane < 64; ++lane) {
    const std::size_t r = base + lane;
    if (r >= data.rowCount()) break;
    for (std::size_t f = 0; f < data.featureCount(); ++f) {
      if (data.feature(r, f) != 0) {
        words[f] |= std::uint64_t{1} << lane;
      }
    }
  }
  return words;
}

TEST(PredictWordTest, TreeAndForestMatchScalarLaneForLane) {
  const Dataset train = randomDataset(500, 10, 55);
  const Dataset test = randomDataset(200, 10, 56);
  FlatForestBank bank = emptyBank(train);
  std::vector<std::uint32_t> all(train.rowCount());
  std::iota(all.begin(), all.end(), 0u);
  std::mt19937_64 rng(1);
  bank.addTree(train.packed(), all, TreeParams{}, rng);  // forest 0
  ForestParams params;
  params.treeCount = 9;
  bank.addForest(train.packed(), params, 8);  // forest 1

  std::array<double, 64> probs{};
  for (std::size_t forest = 0; forest < 2; ++forest) {
    const FlatForest model(bank.view(), forest);
    for (std::size_t base = 0; base < test.rowCount(); base += 64) {
      const auto words = laneWords(test, base);
      probs.fill(0.0);
      const std::uint64_t batch = model.predictWord(words, probs.data());
      for (std::size_t lane = 0; lane < 64 && base + lane < test.rowCount();
           ++lane) {
        EXPECT_EQ(((batch >> lane) & 1u) != 0,
                  model.predict(test.row(base + lane)));
        // Identical summation order: exact equality, not approximate.
        EXPECT_EQ(probs[lane], model.probability(test.row(base + lane)));
      }
    }
  }
}

TEST(PredictWordTest, MajorityLeafPredictsOneClassOnEveryLane) {
  const Dataset data = randomDataset(100, 6, 61);
  FlatForestBank bank = emptyBank(data);
  std::vector<std::uint32_t> all(data.rowCount());
  std::iota(all.begin(), all.end(), 0u);
  std::mt19937_64 rng(1);
  bank.addTree(data.packed(), all, TreeParams{0, 2, 1, 0}, rng);
  ASSERT_EQ(bank.view().nodeCount(), 1u);
  const FlatForest majority(bank.view(), 0);
  const double share = static_cast<double>(data.positiveCount()) / 100.0;
  EXPECT_EQ(majority.probability(data.row(17)),
            static_cast<double>(static_cast<float>(share)));
  std::array<double, 64> probs{};
  const std::uint64_t word =
      majority.predictWord(laneWords(data, 0), probs.data());
  EXPECT_EQ(word, share >= 0.5 ? ~std::uint64_t{0} : std::uint64_t{0});
}

// ---------------------------------------------------------------------
// Packed trace features and the full predictor bank on a real collected
// trace of a synthesized paper design.
// ---------------------------------------------------------------------

Trace collectPaperTrace(std::uint64_t cycles, std::uint64_t seed) {
  static const oisa::circuits::SynthesizedDesign design =
      oisa::circuits::synthesize(oisa::core::makeIsa(8, 2, 1, 4),
                                 oisa::timing::CellLibrary::generic65(),
                                 oisa::circuits::SynthesisOptions{});
  // 15% CPR: aggressive enough that several output bits see real timing
  // errors, so the per-bit forests grow non-trivial trees.
  const double period = design.criticalDelayNs * 0.85;
  auto workload =
      oisa::experiments::makeWorkload("uniform", design.config.width, seed);
  return oisa::experiments::collectTrace(design, period, *workload, cycles);
}

TEST(PackedTraceTest, ColumnsMatchScalarExtraction) {
  const Trace trace = collectPaperTrace(200, 11);
  const FeatureExtractor fx(32);
  const oisa::predict::PackedTraceFeatures packed = fx.packTrace(trace);
  ASSERT_EQ(packed.rowCount, trace.size() - 1);
  std::vector<std::uint8_t> row(fx.featureCount());
  for (int bit = 0; bit <= 32; ++bit) {
    const PackedView view = fx.bitView(packed, bit);
    ASSERT_EQ(view.featureCount(), fx.featureCount());
    for (std::size_t r = 0; r < packed.rowCount; ++r) {
      fx.extract(trace[r], trace[r + 1], bit, row);
      for (std::size_t f = 0; f < view.featureCount(); ++f) {
        const bool packedBit =
            ((view.columns[f][r / 64] >> (r % 64)) & 1u) != 0;
        ASSERT_EQ(packedBit, row[f] != 0)
            << "bit " << bit << " row " << r << " feature " << f;
      }
      const bool label = ((view.labels[r / 64] >> (r % 64)) & 1u) != 0;
      ASSERT_EQ(label,
                FeatureExtractor::timingErroneous(trace[r + 1], bit, 32));
    }
  }
}

TEST(PackedTraceTest, AblatedExtractorDropsGoldColumns) {
  const Trace trace = collectPaperTrace(150, 13);
  const FeatureExtractor fx(32, /*includeOutputBits=*/false);
  const oisa::predict::PackedTraceFeatures packed = fx.packTrace(trace);
  EXPECT_TRUE(packed.goldPrev.empty());
  EXPECT_TRUE(packed.goldCur.empty());
  const PackedView view = fx.bitView(packed, 0);
  EXPECT_EQ(view.featureCount(), fx.sharedFeatureCount());
}

TEST(PackedPredictorTest, AllBitsAgreeWithScalarOnCollectedTrace) {
  const Trace train = collectPaperTrace(600, 17);
  const Trace test = collectPaperTrace(400, 19);
  oisa::predict::PredictorParams params;
  params.forest.treeCount = 5;
  BitLevelPredictor predictor(32, params);
  predictor.fit(train);

  // evaluate()'s batched sweep must equal the scalar per-cycle pipeline:
  // recompute ABPER/AVPE through the public predictFlips path.
  const auto eval = predictor.evaluate(test);
  std::vector<std::uint64_t> wrong(33, 0);
  double avpeSum = 0.0;
  std::uint64_t skipped = 0;
  for (std::size_t t = 1; t < test.size(); ++t) {
    const auto flips = predictor.predictFlips(test[t - 1], test[t]);
    for (int bit = 0; bit <= 32; ++bit) {
      const bool predicted = bit == 32
                                 ? flips.coutFlip
                                 : ((flips.sumFlips >> bit) & 1u) != 0;
      if (predicted !=
          FeatureExtractor::timingErroneous(test[t], bit, 32)) {
        ++wrong[static_cast<std::size_t>(bit)];
      }
    }
    const bool predictedCout = test[t].goldCout != flips.coutFlip;
    const std::uint64_t predictedSilver =
        flips.predictedSilver(test[t].gold) |
        (static_cast<std::uint64_t>(predictedCout ? 1 : 0) << 32);
    const std::uint64_t realSilver = test[t].silverValue(32);
    if (realSilver == 0) {
      ++skipped;
    } else {
      const std::uint64_t diff = predictedSilver >= realSilver
                                     ? predictedSilver - realSilver
                                     : realSilver - predictedSilver;
      avpeSum += static_cast<double>(diff) / static_cast<double>(realSilver);
    }
  }
  const std::uint64_t cycles = test.size() - 1;
  ASSERT_EQ(eval.cycles, cycles);
  EXPECT_EQ(eval.avpeSkipped, skipped);
  double abperSum = 0.0;
  for (int bit = 0; bit <= 32; ++bit) {
    const double rate =
        static_cast<double>(wrong[static_cast<std::size_t>(bit)]) /
        static_cast<double>(cycles);
    EXPECT_EQ(eval.perBitErrorRate[static_cast<std::size_t>(bit)], rate)
        << "bit " << bit;
    abperSum += rate;
  }
  EXPECT_EQ(eval.abper, abperSum / 33.0);
  const std::uint64_t avpeCycles = cycles - skipped;
  EXPECT_EQ(eval.avpe,
            avpeCycles ? avpeSum / static_cast<double>(avpeCycles) : 0.0);
}

TEST(PackedPredictorTest, AvpeUsesIntegerMagnitude) {
  // Values past 2^53: |a - b| computed through doubles collapses small
  // differences to zero; the integer-arithmetic path must not. Build a
  // width-60 trace whose silver value differs from gold by exactly 1 in a
  // minority of cycles, so the Majority baseline predicts "no flips" and
  // every erroneous cycle contributes 1/realSilver ~ 2^-59 to AVPE — tiny
  // but strictly positive. The double-subtraction implementation rounds
  // gold and gold^1 to the same double (spacing 128 at 2^59) and returns
  // exactly 0.
  const int width = 60;
  Trace trace;
  for (int t = 0; t < 130; ++t) {
    TraceRecord rec;
    rec.a = (std::uint64_t{1} << 59) + static_cast<std::uint64_t>(t);
    rec.b = 1;
    rec.gold = rec.a + rec.b;
    rec.silver = (t % 3 == 0) ? (rec.gold ^ 1u) : rec.gold;
    rec.diamond = rec.gold;
    trace.push_back(rec);
  }
  oisa::predict::PredictorParams params;
  params.model = oisa::predict::ModelKind::Majority;
  BitLevelPredictor predictor(width, params);
  predictor.fit(trace);
  const auto eval = predictor.evaluate(trace);
  EXPECT_GT(eval.avpe, 0.0);
  EXPECT_LT(eval.avpe, 1e-17);
}

}  // namespace

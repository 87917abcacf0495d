// Bit-level timing-error predictor tests: feature layout, ABPER/AVPE
// semantics against synthetic traces with known error processes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include "predict/bit_predictor.h"
#include "predict/features.h"

namespace {

using oisa::predict::BitLevelPredictor;
using oisa::predict::FeatureExtractor;
using oisa::predict::ModelKind;
using oisa::predict::PredictedFlips;
using oisa::predict::PredictorParams;
using oisa::predict::Trace;
using oisa::predict::TraceRecord;

TraceRecord makeRecord(std::uint64_t a, std::uint64_t b, std::uint64_t gold,
                       std::uint64_t silver) {
  TraceRecord r;
  r.a = a;
  r.b = b;
  r.gold = gold;
  r.silver = silver;
  r.diamond = gold;
  return r;
}

TEST(FeatureExtractorTest, LayoutMatchesDocumentation) {
  const FeatureExtractor fx(4);
  EXPECT_EQ(fx.featureCount(), 2u * 9u + 2u);
  EXPECT_EQ(fx.outputBitCount(), 5);

  TraceRecord prev = makeRecord(0b0001, 0b0010, 0b0011, 0b0011);
  prev.carryIn = true;
  const TraceRecord cur = makeRecord(0b1000, 0b0100, 0b1100, 0b1100);
  std::vector<std::uint8_t> f(fx.featureCount());
  fx.extract(prev, cur, /*bit=*/2, f);

  // Current cycle: a=1000 (bit3 set), b=0100 (bit2 set), cin=0.
  EXPECT_EQ(f[0], 0);  // a0[t]
  EXPECT_EQ(f[3], 1);  // a3[t]
  EXPECT_EQ(f[6], 1);  // b2[t]
  EXPECT_EQ(f[8], 0);  // cin[t]
  // Previous cycle block starts at 9.
  EXPECT_EQ(f[9], 1);   // a0[t-1]
  EXPECT_EQ(f[14], 1);  // b1[t-1]
  EXPECT_EQ(f[17], 1);  // cin[t-1]
  // Output-bit features: yRTL_2[t-1] = bit2 of 0b0011 = 0;
  // yRTL_2[t] = bit2 of 0b1100 = 1.
  EXPECT_EQ(f[18], 0);
  EXPECT_EQ(f[19], 1);
}

TEST(FeatureExtractorTest, AblationDropsOutputBits) {
  const FeatureExtractor fx(4, /*includeOutputBits=*/false);
  EXPECT_EQ(fx.featureCount(), 18u);
}

TEST(FeatureExtractorTest, CarryOutIsBitWidth) {
  TraceRecord r;
  r.gold = 0;
  r.goldCout = true;
  r.silver = 0;
  r.silverCout = false;
  EXPECT_TRUE(FeatureExtractor::goldBit(r, 8, 8));
  EXPECT_FALSE(FeatureExtractor::silverBit(r, 8, 8));
  EXPECT_TRUE(FeatureExtractor::timingErroneous(r, 8, 8));
  EXPECT_FALSE(FeatureExtractor::timingErroneous(r, 0, 8));
}

// Synthetic trace with a deterministic error rule the model can learn:
// sum bit 1 flips whenever a-bit0 is 1 in the current cycle AND was 0 in
// the previous cycle (a "transition sensitized" bit).
Trace deterministicTrace(int cycles, std::uint64_t seed) {
  Trace trace;
  std::mt19937_64 rng(seed);
  std::uint64_t prevA = 0;
  for (int t = 0; t < cycles; ++t) {
    const std::uint64_t a = rng() & 0xfu;
    const std::uint64_t b = rng() & 0xfu;
    const std::uint64_t gold = (a + b) & 0xfu;
    std::uint64_t silver = gold;
    if ((a & 1u) != 0 && (prevA & 1u) == 0) silver ^= 0b10u;
    trace.push_back(makeRecord(a, b, gold, silver));
    prevA = a;
  }
  return trace;
}

TEST(BitPredictorTest, LearnsDeterministicTransitionRule) {
  const Trace train = deterministicTrace(4000, 31);
  const Trace test = deterministicTrace(2000, 37);
  PredictorParams params;
  params.forest.treeCount = 10;
  BitLevelPredictor predictor(4, params);
  predictor.fit(train);
  const auto eval = predictor.evaluate(test);
  EXPECT_LT(eval.abper, 0.01);
  EXPECT_EQ(eval.cycles, test.size() - 1);
}

TEST(BitPredictorTest, PerfectCircuitGivesZeroAbperAndAvpe) {
  Trace trace;
  std::mt19937_64 rng(41);
  for (int t = 0; t < 500; ++t) {
    const std::uint64_t a = rng() & 0xffu;
    const std::uint64_t b = rng() & 0xffu;
    const std::uint64_t gold = (a + b) & 0xffu;
    trace.push_back(makeRecord(a, b, gold, gold));
  }
  BitLevelPredictor predictor(8);
  predictor.fit(trace);
  const auto eval = predictor.evaluate(trace);
  EXPECT_EQ(eval.abper, 0.0);
  EXPECT_EQ(eval.avpe, 0.0);
}

TEST(BitPredictorTest, PredictedSilverIsGoldXorFlips) {
  PredictedFlips flips;
  flips.sumFlips = 0b1010;
  EXPECT_EQ(flips.predictedSilver(0b1111), 0b0101u);
  EXPECT_EQ(flips.predictedSilver(0b0000), 0b1010u);
}

TEST(BitPredictorTest, MispredictedMsbInflatesAvpeNotAbper) {
  // Construct a trace where exactly one cycle in fifty flips the MSB of an
  // 8-bit value: a majority model predicts "never flips", giving tiny
  // ABPER but (relatively) large AVPE contributions — the paper's Fig. 8
  // observation about designs like (16,1,0,2).
  Trace trace;
  std::mt19937_64 rng(53);
  for (int t = 0; t < 2000; ++t) {
    const std::uint64_t a = rng() & 0xffu;
    const std::uint64_t b = rng() & 0xffu;
    const std::uint64_t gold = ((a + b) & 0xffu) | 0x01u;  // keep nonzero
    const std::uint64_t silver = (t % 50 == 0) ? (gold ^ 0x80u) : gold;
    trace.push_back(makeRecord(a, b, gold, silver));
  }
  PredictorParams params;
  params.model = ModelKind::Majority;
  BitLevelPredictor predictor(8, params);
  predictor.fit(trace);
  const auto eval = predictor.evaluate(trace);
  // One bit out of nine wrong once per 50 cycles.
  EXPECT_NEAR(eval.abper, 0.02 / 9.0, 0.002);
  // Each missed MSB flip contributes ~|128|/value, a large relative error.
  EXPECT_GT(eval.avpe, 10.0 * eval.abper);
}

TEST(BitPredictorTest, ModelKindsAreOrderedOnLearnableData) {
  const Trace train = deterministicTrace(4000, 61);
  const Trace test = deterministicTrace(2000, 67);
  auto abperOf = [&](ModelKind kind) {
    PredictorParams params;
    params.model = kind;
    BitLevelPredictor predictor(4, params);
    predictor.fit(train);
    return predictor.evaluate(test).abper;
  };
  const double rf = abperOf(ModelKind::RandomForest);
  const double dt = abperOf(ModelKind::DecisionTree);
  const double mj = abperOf(ModelKind::Majority);
  // The rule is learnable: both tree models beat the majority baseline.
  EXPECT_LT(rf, mj);
  EXPECT_LT(dt, mj);
}

TEST(BitPredictorTest, GuardsAgainstMisuse) {
  BitLevelPredictor predictor(4);
  const Trace tiny(1);
  EXPECT_THROW(predictor.fit(tiny), std::invalid_argument);
  const Trace two(2);
  EXPECT_THROW((void)predictor.evaluate(two), std::logic_error);
  PredictedFlips flips;
  EXPECT_THROW(predictor.predictFlipsBlock(two, std::span(&flips, 1)),
               std::logic_error);
  EXPECT_THROW((void)predictor.predictFlipsReference(two[0], two[1]),
               std::logic_error);
}

TEST(BitPredictorTest, EveryModelKindPersistsThroughSaveFlat) {
  // Every kind is a flat forest bank, so every kind round-trips through
  // envelope v2 and serves identically after the reload.
  const Trace train = deterministicTrace(3000, 71);
  const Trace test = deterministicTrace(1000, 73);
  const auto path =
      (std::filesystem::temp_directory_path() / "predictor_test_bank.ffb")
          .string();
  for (const ModelKind kind :
       {ModelKind::RandomForest, ModelKind::DecisionTree,
        ModelKind::Majority}) {
    PredictorParams params;
    params.model = kind;
    params.forest.treeCount = 5;
    BitLevelPredictor predictor(4, params);
    predictor.fit(train);
    ASSERT_TRUE(predictor.saveFlat(path).isOk());
    auto loaded = BitLevelPredictor::loadFlat(path);
    ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
    // The serving block path of both banks, pair by pair in 64-pair blocks
    // (the last one ragged), and the scalar reference of the reload.
    const std::span<const TraceRecord> records(test);
    std::array<PredictedFlips, 64> original;
    std::array<PredictedFlips, 64> reloaded;
    for (std::size_t base = 0; base + 1 < test.size(); base += 64) {
      const std::size_t n = std::min<std::size_t>(64, test.size() - 1 - base);
      predictor.predictFlipsBlock(records.subspan(base, n + 1),
                                  std::span(original).first(n));
      loaded.value().predictFlipsBlock(records.subspan(base, n + 1),
                                       std::span(reloaded).first(n));
      for (std::size_t lane = 0; lane < n; ++lane) {
        const std::size_t t = base + lane + 1;
        const PredictedFlips reference =
            loaded.value().predictFlipsReference(test[t - 1], test[t]);
        ASSERT_EQ(original[lane].sumFlips, reloaded[lane].sumFlips) << t;
        ASSERT_EQ(original[lane].coutFlip, reloaded[lane].coutFlip) << t;
        ASSERT_EQ(reloaded[lane].sumFlips, reference.sumFlips) << t;
        ASSERT_EQ(reloaded[lane].coutFlip, reference.coutFlip) << t;
      }
    }
    const auto e1 = predictor.evaluate(test);
    const auto e2 = loaded.value().evaluate(test);
    EXPECT_EQ(e1.abper, e2.abper);
    EXPECT_EQ(e1.avpe, e2.avpe);
  }
  std::remove(path.c_str());
}

TEST(BitPredictorTest, SaveFlatRejectsUntrainedBanks) {
  const BitLevelPredictor untrained(4);
  const auto path =
      (std::filesystem::temp_directory_path() / "predictor_untrained.ffb")
          .string();
  EXPECT_EQ(untrained.saveFlat(path).code(),
            oisa::core::StatusCode::InvalidInput);
}

TEST(BitPredictorTest, FeatureImportanceHighlightsCausalInputs) {
  // The synthetic rule flips bit 1 based on a0[t] and a0[t-1]: those two
  // features must carry substantial importance mass.
  const Trace train = deterministicTrace(5000, 83);
  PredictorParams params;
  params.forest.treeCount = 10;
  BitLevelPredictor predictor(4, params);
  predictor.fit(train);
  const auto importance = predictor.featureImportance();
  const auto& fx = predictor.extractor();
  ASSERT_EQ(importance.size(), fx.featureCount());

  // The two causal features must rank first and second; deep noise splits
  // dilute absolute mass, so rank is the robust assertion.
  std::vector<std::size_t> order(importance.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return importance[x] > importance[y];
  });
  const std::string first = fx.featureName(order[0]);
  const std::string second = fx.featureName(order[1]);
  EXPECT_TRUE((first == "a0[t]" && second == "a0[t-1]") ||
              (first == "a0[t-1]" && second == "a0[t]"))
      << "top-2 were " << first << ", " << second;
  double total = 0.0;
  for (const double v : importance) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(FeatureExtractorTest, FeatureNamesMatchLayout) {
  const oisa::predict::FeatureExtractor fx(4);
  EXPECT_EQ(fx.featureName(0), "a0[t]");
  EXPECT_EQ(fx.featureName(3), "a3[t]");
  EXPECT_EQ(fx.featureName(4), "b0[t]");
  EXPECT_EQ(fx.featureName(8), "cin[t]");
  EXPECT_EQ(fx.featureName(9), "a0[t-1]");
  EXPECT_EQ(fx.featureName(17), "cin[t-1]");
  EXPECT_EQ(fx.featureName(18), "yRTL_n[t-1]");
  EXPECT_EQ(fx.featureName(19), "yRTL_n[t]");
  EXPECT_THROW((void)fx.featureName(20), std::invalid_argument);
}

TEST(BitPredictorTest, AvpeSkipsZeroSilverCycles) {
  Trace trace;
  for (int t = 0; t < 100; ++t) {
    trace.push_back(makeRecord(0, 0, 0, 0));  // silver == 0 every cycle
  }
  BitLevelPredictor predictor(4);
  predictor.fit(trace);
  const auto eval = predictor.evaluate(trace);
  EXPECT_EQ(eval.avpeSkipped, eval.cycles);
  EXPECT_EQ(eval.avpe, 0.0);
}

}  // namespace

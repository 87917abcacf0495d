// Flat forest bank tests: the 64-lane masked walk vs the scalar walk
// (bit-exact, on random datasets and on banks trained from real collected
// traces), structural validation, the binary envelope v2 (round trips,
// mmap loads, flip-any-byte / truncate-anywhere corruption, and a stored
// fixture the trainer must keep reproducing byte for byte), and the
// batch-64 predictFlipsBlock hot path vs the scalar reference, including
// the ragged final block.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <sstream>
#include <vector>

#include "circuits/synthesis.h"
#include "core/isa_adder.h"
#include "core/status.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"
#include "ml/dataset.h"
#include "ml/flat_forest.h"
#include "ml/serialize.h"
#include "predict/bit_predictor.h"
#include "sha256.h"
#include "timing/cell_library.h"

namespace {

using oisa::core::Status;
using oisa::core::StatusCode;
using oisa::ml::FlatBankView;
using oisa::ml::FlatForest;
using oisa::ml::FlatForestBank;
using oisa::ml::ForestParams;
using oisa::ml::MappedForestBank;
using oisa::predict::BitLevelPredictor;
using oisa::predict::PredictedFlips;
using oisa::predict::PredictorParams;
using oisa::predict::Trace;
using oisa::predict::TraceRecord;

oisa::ml::Dataset randomDataset(std::size_t features, std::size_t rows,
                                std::uint64_t seed) {
  // Label = f0 XOR f2 with noise, so trees grow real structure.
  oisa::ml::Dataset data(features);
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> row(features);
  for (std::size_t r = 0; r < rows; ++r) {
    for (auto& f : row) f = static_cast<std::uint8_t>(rng() & 1u);
    bool label = (row[0] ^ row[2]) != 0;
    if ((rng() & 0xfu) == 0) label = !label;
    data.addRow(row, label);
  }
  return data;
}

FlatForestBank trainBank(std::size_t count, std::size_t features,
                         std::uint64_t seed) {
  FlatForestBank bank(static_cast<std::uint32_t>(features));
  for (std::size_t i = 0; i < count; ++i) {
    ForestParams params;
    params.treeCount = 5;
    // Shallow trees keep banks small enough for the O(bytes^2)
    // flip-every-byte / truncate-everywhere corruption sweeps.
    params.tree.maxDepth = 4;
    const oisa::ml::Dataset data =
        randomDataset(features, 200, seed * 31 + i);
    bank.addForest(data.packed(), params, seed + i);
  }
  return bank;
}

/// Synthetic overclocked-adder trace with transition-sensitized flips
/// (the micro_predict generator, narrowed).
Trace syntheticTrace(int width, std::uint64_t cycles, std::uint64_t seed) {
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  std::mt19937_64 rng(seed);
  Trace trace;
  std::uint64_t prevA = 0;
  for (std::uint64_t t = 0; t < cycles; ++t) {
    TraceRecord rec;
    rec.a = rng() & mask;
    rec.b = rng() & mask;
    const std::uint64_t sum = rec.a + rec.b;
    rec.gold = sum & mask;
    rec.goldCout = ((sum >> width) & 1u) != 0;
    rec.diamond = rec.gold;
    rec.diamondCout = rec.goldCout;
    rec.silver = rec.gold;
    rec.silverCout = rec.goldCout;
    for (const int k : {1, 5, 9}) {
      if (k + 1 >= width) continue;
      const bool carry = ((rec.a >> k) & (rec.b >> k) & 1u) != 0;
      if (carry && ((prevA >> k) & 1u) == 0) {
        rec.silver ^= std::uint64_t{1} << (k + 1);
      }
    }
    if ((rng() & 0x1fu) == 0) rec.silverCout = !rec.silverCout;
    prevA = rec.a;
    trace.push_back(rec);
  }
  return trace;
}

/// Asserts block-path predictions equal the scalar reference pair by
/// pair over the whole trace, sweeping in 64-lane blocks (final ragged).
void expectBlockMatchesReference(const BitLevelPredictor& predictor,
                                 const Trace& trace) {
  const std::size_t rows = trace.size() - 1;
  std::vector<PredictedFlips> flips(rows);
  const std::span<const TraceRecord> records(trace);
  for (std::size_t base = 0; base < rows; base += 64) {
    const std::size_t n = std::min<std::size_t>(64, rows - base);
    predictor.predictFlipsBlock(records.subspan(base, n + 1),
                                std::span(flips).subspan(base, n));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const PredictedFlips ref =
        predictor.predictFlipsReference(trace[r], trace[r + 1]);
    ASSERT_EQ(flips[r].sumFlips, ref.sumFlips) << "row " << r;
    ASSERT_EQ(flips[r].coutFlip, ref.coutFlip) << "row " << r;
  }
}

TEST(FlatForestTest, PredictWordMatchesScalarLaneForLane) {
  constexpr std::size_t kFeatures = 10;
  const FlatForestBank bank = trainBank(3, kFeatures, 5);
  std::mt19937_64 rng(99);
  // 64 random rows as bit-columns: featureWords[f] bit `lane` = row value.
  std::array<std::vector<std::uint8_t>, 64> rows;
  std::vector<std::uint64_t> featureWords(kFeatures, 0);
  for (std::size_t lane = 0; lane < 64; ++lane) {
    rows[lane].resize(kFeatures);
    for (std::size_t f = 0; f < kFeatures; ++f) {
      rows[lane][f] = static_cast<std::uint8_t>(rng() & 1u);
      if (rows[lane][f] != 0) featureWords[f] |= std::uint64_t{1} << lane;
    }
  }
  std::array<double, 64> sums{};
  for (std::size_t i = 0; i < bank.view().forestCount(); ++i) {
    const FlatForest flat(bank.view(), i);
    sums.fill(0.0);
    const std::uint64_t word = flat.predictWord(featureWords, sums.data());
    for (std::size_t lane = 0; lane < 64; ++lane) {
      // Same tree-by-tree summation order: exact equality.
      ASSERT_EQ(sums[lane], flat.probability(rows[lane]));
      ASSERT_EQ(((word >> lane) & 1u) != 0, flat.predict(rows[lane]));
    }
  }
}

TEST(FlatForestTest, ValidateRejectsStructuralViolations) {
  const FlatForestBank bank = trainBank(2, 8, 11);
  const FlatBankView good = bank.view();
  ASSERT_TRUE(oisa::ml::validateFlatBank(good).isOk());

  // Each doctored copy must be rejected even though its CRC would be
  // valid if re-serialized: validation is structural, not checksummed.
  auto copyArrays = [&] {
    struct Arrays {
      std::vector<std::uint32_t> forestBegin;
      std::vector<std::uint32_t> roots, left, right;
      std::vector<std::int16_t> feature;
      std::vector<float> prob;
      FlatBankView view(std::uint32_t featureCount) const {
        FlatBankView v;
        v.forestBegin = forestBegin;
        v.roots = roots;
        v.feature = feature;
        v.left = left;
        v.right = right;
        v.prob = prob;
        v.featureCount = featureCount;
        return v;
      }
    } a;
    a.forestBegin.assign(good.forestBegin.begin(), good.forestBegin.end());
    a.roots.assign(good.roots.begin(), good.roots.end());
    a.feature.assign(good.feature.begin(), good.feature.end());
    a.left.assign(good.left.begin(), good.left.end());
    a.right.assign(good.right.begin(), good.right.end());
    a.prob.assign(good.prob.begin(), good.prob.end());
    return a;
  };

  {  // A split node whose child does not follow it (cycle potential).
    auto a = copyArrays();
    for (std::size_t i = 0; i < a.feature.size(); ++i) {
      if (a.feature[i] >= 0) {
        a.left[i] = static_cast<std::uint32_t>(i);
        break;
      }
    }
    EXPECT_EQ(oisa::ml::validateFlatBank(a.view(8)).code(),
              StatusCode::Corruption);
  }
  {  // Root index out of range.
    auto a = copyArrays();
    a.roots[0] = static_cast<std::uint32_t>(a.feature.size());
    EXPECT_EQ(oisa::ml::validateFlatBank(a.view(8)).code(),
              StatusCode::Corruption);
  }
  {  // Split feature beyond the declared feature count.
    auto a = copyArrays();
    EXPECT_EQ(oisa::ml::validateFlatBank(a.view(1)).code(),
              StatusCode::Corruption);
  }
  {  // Non-monotonic forest offsets.
    auto a = copyArrays();
    a.forestBegin.back() = 0;
    EXPECT_EQ(oisa::ml::validateFlatBank(a.view(8)).code(),
              StatusCode::Corruption);
  }
}

TEST(EnvelopeV2Test, RoundTripsThroughBufferAndFile) {
  const FlatForestBank bank = trainBank(3, 9, 23);
  const std::string bytes = oisa::ml::serializeFlatBank(bank.view(), 17, 1);

  auto fromBuf = MappedForestBank::fromBuffer(bytes);
  ASSERT_TRUE(fromBuf.isOk()) << fromBuf.status().toString();
  const MappedForestBank inMemory = std::move(fromBuf).valueOrThrow();
  EXPECT_EQ(inMemory.meta0(), 17u);
  EXPECT_EQ(inMemory.meta1(), 1u);
  EXPECT_FALSE(inMemory.mapped());

  const auto path =
      (std::filesystem::temp_directory_path() / "flat_forest_test.ffb")
          .string();
  ASSERT_TRUE(oisa::ml::writeFlatBankFile(path, bank.view(), 17, 1).isOk());
  auto fromFile = MappedForestBank::open(path);
  ASSERT_TRUE(fromFile.isOk()) << fromFile.status().toString();
  const MappedForestBank mapped = std::move(fromFile).valueOrThrow();
  std::remove(path.c_str());

  for (const MappedForestBank* loaded : {&inMemory, &mapped}) {
    const FlatBankView v = loaded->view();
    const FlatBankView w = bank.view();
    ASSERT_TRUE(oisa::ml::validateFlatBank(v).isOk());
    ASSERT_EQ(v.featureCount, w.featureCount);
    ASSERT_TRUE(std::ranges::equal(v.forestBegin, w.forestBegin));
    ASSERT_TRUE(std::ranges::equal(v.roots, w.roots));
    ASSERT_TRUE(std::ranges::equal(v.feature, w.feature));
    ASSERT_TRUE(std::ranges::equal(v.left, w.left));
    ASSERT_TRUE(std::ranges::equal(v.right, w.right));
    ASSERT_TRUE(std::ranges::equal(v.prob, w.prob));
  }
}

TEST(EnvelopeV2Test, FlippingAnyByteIsCorruption) {
  const FlatForestBank bank = trainBank(2, 6, 3);
  const std::string bytes = oisa::ml::serializeFlatBank(bank.view());
  ASSERT_TRUE(MappedForestBank::fromBuffer(bytes).isOk());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5a);
    const auto result = MappedForestBank::fromBuffer(std::move(corrupt));
    ASSERT_FALSE(result.isOk()) << "byte " << i << " flip went undetected";
    ASSERT_EQ(result.status().code(), StatusCode::Corruption) << "byte " << i;
  }
}

TEST(EnvelopeV2Test, TruncatingAnywhereIsCorruption) {
  const FlatForestBank bank = trainBank(2, 6, 13);
  const std::string bytes = oisa::ml::serializeFlatBank(bank.view());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto result = MappedForestBank::fromBuffer(bytes.substr(0, len));
    ASSERT_FALSE(result.isOk()) << "truncation to " << len << " undetected";
    ASSERT_EQ(result.status().code(), StatusCode::Corruption) << "len " << len;
  }
}

TEST(PredictFlipsBlockTest, MatchesScalarIncludingRaggedFinalBlock) {
  // 150 pairs = two full 64-lane blocks + a ragged 22-lane tail.
  const Trace train = syntheticTrace(16, 1500, 71);
  const Trace test = syntheticTrace(16, 151, 72);
  PredictorParams params;
  params.forest.treeCount = 6;
  BitLevelPredictor predictor(16, params);
  predictor.fit(train);
  expectBlockMatchesReference(predictor, test);
}

TEST(PredictFlipsBlockTest, GuardsAgainstMisuse) {
  const Trace train = syntheticTrace(8, 600, 5);
  BitLevelPredictor predictor(8);
  predictor.fit(train);
  std::array<PredictedFlips, 4> out;
  const std::span<const TraceRecord> records(train);
  EXPECT_THROW(predictor.predictFlipsBlock(records.first(1),
                                           std::span(out).first(0)),
               std::invalid_argument);
  EXPECT_THROW(predictor.predictFlipsBlock(records.first(5),
                                           std::span(out).first(3)),
               std::invalid_argument);
  EXPECT_THROW(predictor.predictFlipsBlock(records.first(66),
                                           std::span(out)),
               std::invalid_argument);
}

TEST(FlatBankPersistenceTest, SaveFlatLoadFlatServesIdentically) {
  const Trace train = syntheticTrace(12, 1200, 29);
  const Trace test = syntheticTrace(12, 300, 30);
  PredictorParams params;
  params.forest.treeCount = 6;
  BitLevelPredictor predictor(12, params);
  predictor.fit(train);

  const auto path =
      (std::filesystem::temp_directory_path() / "flat_bank_persist.ffb")
          .string();
  ASSERT_TRUE(predictor.saveFlat(path).isOk());
  auto loadedOr = BitLevelPredictor::loadFlat(path);
  ASSERT_TRUE(loadedOr.isOk()) << loadedOr.status().toString();
  const BitLevelPredictor loaded = std::move(loadedOr).valueOrThrow();
  std::remove(path.c_str());

  EXPECT_TRUE(loaded.trained());
  EXPECT_EQ(loaded.width(), predictor.width());
  const auto evalA = predictor.evaluate(test);
  const auto evalB = loaded.evaluate(test);
  EXPECT_EQ(evalA.abper, evalB.abper);
  EXPECT_EQ(evalA.avpe, evalB.avpe);
  for (std::size_t r = 0; r + 1 < test.size(); ++r) {
    const PredictedFlips a = predictor.predictFlips(test[r], test[r + 1]);
    const PredictedFlips b = loaded.predictFlips(test[r], test[r + 1]);
    ASSERT_EQ(a.sumFlips, b.sumFlips);
    ASSERT_EQ(a.coutFlip, b.coutFlip);
  }
}

TEST(FlatBankPersistenceTest, LoadedBankKeepsImportanceAndReferencePath) {
  // Everything reads the arena, so a loadFlat()-ed bank answers the
  // importance query and the scalar reference path exactly like the
  // bank it was saved from — not with zeros or an exception.
  const Trace train = syntheticTrace(12, 1200, 31);
  const Trace test = syntheticTrace(12, 200, 32);
  PredictorParams params;
  params.forest.treeCount = 4;
  BitLevelPredictor predictor(12, params);
  predictor.fit(train);
  const auto path =
      (std::filesystem::temp_directory_path() / "flat_bank_importance.ffb")
          .string();
  ASSERT_TRUE(predictor.saveFlat(path).isOk());
  auto loadedOr = BitLevelPredictor::loadFlat(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loadedOr.isOk()) << loadedOr.status().toString();
  const BitLevelPredictor loaded = std::move(loadedOr).valueOrThrow();

  const std::vector<double> trained = predictor.featureImportance();
  ASSERT_GT(*std::max_element(trained.begin(), trained.end()), 0.0);
  EXPECT_EQ(loaded.featureImportance(), trained);
  for (std::size_t r = 0; r + 1 < test.size(); ++r) {
    const PredictedFlips a = predictor.predictFlipsReference(test[r],
                                                             test[r + 1]);
    const PredictedFlips b = loaded.predictFlipsReference(test[r],
                                                          test[r + 1]);
    ASSERT_EQ(a.sumFlips, b.sumFlips) << "row " << r;
    ASSERT_EQ(a.coutFlip, b.coutFlip) << "row " << r;
  }
  expectBlockMatchesReference(loaded, test);
}

TEST(FlatBankPersistenceTest, LoadFlatRejectsForeignBanks) {
  // A structurally valid envelope whose forest count does not match any
  // predictor geometry (meta0 width + 1 forests) must be refused.
  const FlatForestBank bank = trainBank(3, 8, 47);
  const auto path =
      (std::filesystem::temp_directory_path() / "flat_bank_foreign.ffb")
          .string();
  ASSERT_TRUE(oisa::ml::writeFlatBankFile(path, bank.view(), 8, 1).isOk());
  EXPECT_FALSE(BitLevelPredictor::loadFlat(path).isOk());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// On-disk compatibility fixture. tests/data/flat_bank_w8.ffb is a width-8
// bank (3 trees per forest, depth 5, seed 5) trained on
// syntheticTrace(8, 800, 41). It was written by the pointer-forest
// trainer (each tree grown into its own node vector, then concatenated
// into the arena) before the growers appended straight into the arena,
// as `trainFixtureBank().saveFlat("tests/data/flat_bank_w8.ffb")`.
//
// Loading it must keep serving the recorded predictions, and retraining
// the same parameters must reproduce the file byte for byte. No test
// rewrites the file: a deliberate format or trainer change replaces it
// in its own diff.
// ---------------------------------------------------------------------

constexpr const char* kFixtureServingDigest =
    "616a8f980c5d49d1a38a2f7e5ec69768abdc750e5afe807d11411e68fb4bbc4d";

std::string fixturePath() {
  return std::string(OISA_TEST_DATA_DIR) + "/flat_bank_w8.ffb";
}

BitLevelPredictor trainFixtureBank() {
  PredictorParams params;
  params.forest.treeCount = 3;
  params.forest.tree.maxDepth = 5;
  params.seed = 5;
  BitLevelPredictor predictor(8, params);
  predictor.fit(syntheticTrace(8, 800, 41));
  return predictor;
}

/// Canonical text of everything a bank serves on the fixture's test
/// trace: evaluate()'s metrics (hexfloat) and every predictFlipsBlock
/// lane, digested.
std::string servingDigest(const BitLevelPredictor& predictor) {
  const Trace test = syntheticTrace(8, 300, 42);
  const auto eval = predictor.evaluate(test);
  char buf[128];
  std::snprintf(buf, sizeof buf, "%a,%a,%llu,%llu\n", eval.abper, eval.avpe,
                static_cast<unsigned long long>(eval.cycles),
                static_cast<unsigned long long>(eval.avpeSkipped));
  std::string text = buf;
  const std::size_t rows = test.size() - 1;
  std::vector<PredictedFlips> flips(rows);
  const std::span<const TraceRecord> records(test);
  for (std::size_t base = 0; base < rows; base += 64) {
    const std::size_t n = std::min<std::size_t>(64, rows - base);
    predictor.predictFlipsBlock(records.subspan(base, n + 1),
                                std::span(flips).subspan(base, n));
  }
  for (const PredictedFlips& f : flips) {
    text += std::to_string(f.sumFlips) + (f.coutFlip ? "c\n" : "\n");
  }
  return oisa::testing::sha256Hex(text);
}

std::string readFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << is.rdbuf();
  return bytes.str();
}

TEST(FlatBankFixtureTest, RetrainingReproducesTheFileByteForByte) {
  const BitLevelPredictor trained = trainFixtureBank();
  const std::string fixture = readFile(fixturePath());
  ASSERT_FALSE(fixture.empty()) << "missing " << fixturePath();
  EXPECT_TRUE(oisa::ml::serializeFlatBank(trained.flatView(), 8, 1) ==
              fixture);
  EXPECT_EQ(servingDigest(trained), kFixtureServingDigest);
}

TEST(FlatBankFixtureTest, StoredBankServesRecordedPredictions) {
  auto loaded = BitLevelPredictor::loadFlat(fixturePath());
  ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
  EXPECT_EQ(servingDigest(loaded.value()), kFixtureServingDigest);
}

TEST(FlatForestTest, TrainedFigureBanksMatchScalarPath) {
  // Banks trained from real collected traces of a paper design at every
  // figure CPR point: the flat block path must match the scalar
  // reference on every evaluation pair.
  const auto lib = oisa::timing::CellLibrary::generic65();
  oisa::circuits::SynthesisOptions synth;
  synth.relaxSlack = true;
  const auto design =
      oisa::circuits::synthesize(oisa::core::makeIsa(16, 2, 0, 4), lib, synth);
  for (const double cpr : {5.0, 10.0, 15.0}) {
    const double period = oisa::experiments::overclockedPeriodNs(0.3, cpr);
    auto trainWl = oisa::experiments::makeWorkload("uniform", 32, 7);
    auto testWl = oisa::experiments::makeWorkload("uniform", 32, 8);
    const Trace train =
        oisa::experiments::collectTrace(design, period, *trainWl, 700);
    const Trace test =
        oisa::experiments::collectTrace(design, period, *testWl, 200);
    PredictorParams params;
    params.forest.treeCount = 5;
    BitLevelPredictor predictor(32, params);
    predictor.fit(train);
    ASSERT_TRUE(oisa::ml::validateFlatBank(predictor.flatView()).isOk())
        << "cpr " << cpr;
    expectBlockMatchesReference(predictor, test);
  }
}

}  // namespace

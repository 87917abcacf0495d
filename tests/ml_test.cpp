// ML substrate tests: dataset mechanics, CART splits, forest behavior
// and the majority baseline, all grown into flat forest banks.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "ml/dataset.h"
#include "ml/flat_forest.h"

namespace {

using oisa::ml::Dataset;
using oisa::ml::FlatForest;
using oisa::ml::FlatForestBank;
using oisa::ml::ForestParams;
using oisa::ml::TreeParams;

/// A bank holding one tree grown on every row of `data` (the
/// DecisionTree model kind).
FlatForestBank growTree(const Dataset& data, const TreeParams& params,
                        std::uint64_t seed = 1) {
  FlatForestBank bank(static_cast<std::uint32_t>(data.featureCount()));
  std::vector<std::uint32_t> rows(data.rowCount());
  std::iota(rows.begin(), rows.end(), 0u);
  std::mt19937_64 rng(seed);
  bank.addTree(data.packed(), rows, params, rng);
  return bank;
}

FlatForestBank growForest(const Dataset& data, const ForestParams& params,
                          std::uint64_t seed) {
  FlatForestBank bank(static_cast<std::uint32_t>(data.featureCount()));
  bank.addForest(data.packed(), params, seed);
  return bank;
}

double accuracy(const FlatForest& model, const Dataset& data) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.rowCount(); ++i) {
    correct += model.predict(data.row(i)) == data.label(i) ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(data.rowCount());
}

Dataset xorDataset(int copies) {
  // Label = f0 XOR f1, with a few irrelevant noise features.
  Dataset data(4);
  std::mt19937_64 rng(3);
  for (int c = 0; c < copies; ++c) {
    for (int pattern = 0; pattern < 4; ++pattern) {
      const std::uint8_t f0 = pattern & 1;
      const std::uint8_t f1 = (pattern >> 1) & 1;
      const std::vector<std::uint8_t> row{
          f0, f1, static_cast<std::uint8_t>(rng() & 1),
          static_cast<std::uint8_t>(rng() & 1)};
      data.addRow(row, (f0 ^ f1) != 0);
    }
  }
  return data;
}

TEST(DatasetTest, StoresRowsAndLabels) {
  Dataset data(3);
  data.addRow(std::vector<std::uint8_t>{1, 0, 1}, true);
  data.addRow(std::vector<std::uint8_t>{0, 0, 0}, false);
  EXPECT_EQ(data.rowCount(), 2u);
  EXPECT_EQ(data.featureCount(), 3u);
  EXPECT_EQ(data.positiveCount(), 1u);
  EXPECT_TRUE(data.label(0));
  EXPECT_EQ(data.feature(0, 2), 1);
  EXPECT_EQ(data.row(1)[0], 0);
}

TEST(DatasetTest, RejectsBadShapes) {
  EXPECT_THROW(Dataset(0), std::invalid_argument);
  Dataset data(2);
  EXPECT_THROW(data.addRow(std::vector<std::uint8_t>{1}, true),
               std::invalid_argument);
}

TEST(DecisionTreeTest, LearnsXorExactly) {
  const Dataset data = xorDataset(25);
  const FlatForestBank bank = growTree(data, TreeParams{});
  const FlatForest tree(bank.view(), 0);
  for (std::size_t i = 0; i < data.rowCount(); ++i) {
    EXPECT_EQ(tree.predict(data.row(i)), data.label(i));
  }
}

TEST(DecisionTreeTest, PureDataYieldsSingleLeaf) {
  Dataset data(2);
  for (int i = 0; i < 10; ++i) {
    data.addRow(std::vector<std::uint8_t>{
                    static_cast<std::uint8_t>(i & 1), 1},
                false);
  }
  const FlatForestBank bank = growTree(data, TreeParams{});
  EXPECT_EQ(bank.view().nodeCount(), 1u);
  const FlatForest tree(bank.view(), 0);
  EXPECT_FALSE(tree.predict(data.row(0)));
  EXPECT_DOUBLE_EQ(tree.probability(data.row(0)), 0.0);
}

TEST(DecisionTreeTest, MaxDepthZeroIsMajorityVote) {
  Dataset data(1);
  for (int i = 0; i < 10; ++i) {
    data.addRow(std::vector<std::uint8_t>{static_cast<std::uint8_t>(i & 1)},
                i < 7);
  }
  const FlatForestBank bank = growTree(data, TreeParams{.maxDepth = 0});
  EXPECT_EQ(bank.view().nodeCount(), 1u);
  const FlatForest tree(bank.view(), 0);
  EXPECT_TRUE(tree.predict(data.row(0)));
  EXPECT_NEAR(tree.probability(data.row(0)), 0.7, 1e-6);
}

TEST(DecisionTreeTest, FitIsDeterministicGivenSeed) {
  const Dataset data = xorDataset(50);
  TreeParams params;
  params.featuresPerSplit = 2;
  const FlatForestBank t1 = growTree(data, params, 99);
  const FlatForestBank t2 = growTree(data, params, 99);
  ASSERT_EQ(t1.view().nodeCount(), t2.view().nodeCount());
  EXPECT_TRUE(std::ranges::equal(t1.view().feature, t2.view().feature));
}

TEST(RandomForestTest, LearnsNoisyMajorityFunction) {
  // Label = majority(f0, f1, f2) with 5% label noise: the forest should be
  // much better than chance and at least as good as the majority baseline.
  Dataset train(6), test(6);
  std::mt19937_64 rng(7);
  auto fill = [&](Dataset& d, int n) {
    for (int i = 0; i < n; ++i) {
      std::vector<std::uint8_t> row(6);
      for (auto& v : row) v = static_cast<std::uint8_t>(rng() & 1);
      bool label = (row[0] + row[1] + row[2]) >= 2;
      if ((rng() % 100) < 5) label = !label;
      d.addRow(row, label);
    }
  };
  fill(train, 2000);
  fill(test, 1000);

  ForestParams params;
  params.treeCount = 15;
  const FlatForestBank forest = growForest(train, params, 11);
  const double forestAccuracy = accuracy(FlatForest(forest.view(), 0), test);
  EXPECT_GT(forestAccuracy, 0.9);

  const FlatForestBank baseline = growTree(train, TreeParams{.maxDepth = 0});
  EXPECT_GT(forestAccuracy, accuracy(FlatForest(baseline.view(), 0), test));
}

TEST(RandomForestTest, ConstantLabelsShortCircuitToOneLeaf) {
  Dataset data(4);
  std::mt19937_64 rng(13);
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> row(4);
    for (auto& v : row) v = static_cast<std::uint8_t>(rng() & 1);
    data.addRow(row, false);
  }
  const FlatForestBank forest = growForest(data, ForestParams{}, 1);
  EXPECT_EQ(forest.view().roots.size(), 1u);
  EXPECT_EQ(forest.view().nodeCount(), 1u);
  EXPECT_FALSE(FlatForest(forest.view(), 0).predict(data.row(0)));
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  const Dataset data = xorDataset(100);
  ForestParams params;
  params.treeCount = 5;
  const FlatForestBank f1 = growForest(data, params, 21);
  const FlatForestBank f2 = growForest(data, params, 21);
  std::mt19937_64 rng(23);
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> row(4);
    for (auto& v : row) v = static_cast<std::uint8_t>(rng() & 1);
    EXPECT_DOUBLE_EQ(FlatForest(f1.view(), 0).probability(row),
                     FlatForest(f2.view(), 0).probability(row));
  }
}

TEST(RandomForestTest, RejectsDegenerateParams) {
  Dataset empty(2);
  FlatForestBank bank(2);
  EXPECT_THROW(bank.addForest(empty.packed(), ForestParams{}),
               std::invalid_argument);
  Dataset one(2);
  one.addRow(std::vector<std::uint8_t>{0, 1}, true);
  ForestParams zeroTrees;
  zeroTrees.treeCount = 0;
  EXPECT_THROW(bank.addForest(one.packed(), zeroTrees),
               std::invalid_argument);
  // A bank grows forests over one row length only.
  FlatForestBank narrow(1);
  EXPECT_THROW(narrow.addForest(one.packed(), ForestParams{}),
               std::invalid_argument);
  EXPECT_TRUE(bank.empty());
}

TEST(FlatForestBankTest, ForestsAppendInOrder) {
  // Each add appends one forest; the second forest's roots and children
  // are arena-absolute, past every node of the first.
  const Dataset data = xorDataset(40);
  FlatForestBank bank(4);
  ForestParams params;
  params.treeCount = 3;
  bank.addForest(data.packed(), params, 1);
  const std::size_t firstNodes = bank.view().nodeCount();
  bank.addForest(data.packed(), params, 2);
  const auto view = bank.view();
  ASSERT_EQ(view.forestCount(), 2u);
  EXPECT_EQ(view.forestBegin[1], 3u);
  EXPECT_EQ(view.roots[3], firstNodes);
  EXPECT_TRUE(oisa::ml::validateFlatBank(view).isOk());
}

}  // namespace

// oisa_ml: the forest growers. Both append nodes straight into a
// FlatForestBank arena in pre-order with arena-absolute child indices;
// the packed popcount grower and the row-scan reference grower draw the
// same rng values and grow identical arenas.
#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "ml/flat_forest.h"

namespace oisa::ml {

namespace {

/// Gini impurity of a node with `pos` positives out of `n`.
[[nodiscard]] double gini(std::size_t pos, std::size_t n) noexcept {
  if (n == 0) return 0.0;
  const double q = static_cast<double>(pos) / static_cast<double>(n);
  return 2.0 * q * (1.0 - q);
}

/// Candidate features for one split: all, or a random subset (forest
/// mode). Shared by the packed and reference growers so both consume the
/// rng identically — a precondition of their node-for-node equality.
void selectCandidates(std::size_t featureCount, const TreeParams& params,
                      std::mt19937_64& rng,
                      std::vector<std::uint32_t>& candidates) {
  candidates.resize(featureCount);
  std::iota(candidates.begin(), candidates.end(), 0u);
  if (params.featuresPerSplit == 0 ||
      params.featuresPerSplit >= featureCount) {
    return;
  }
  // Partial Fisher-Yates over feature indices.
  for (std::size_t i = 0; i < params.featuresPerSplit; ++i) {
    std::uniform_int_distribution<std::size_t> pick(i, featureCount - 1);
    std::swap(candidates[i], candidates[pick(rng)]);
  }
  candidates.resize(params.featuresPerSplit);
}

}  // namespace

// ---------------------------------------------------------------------------
// Arena bookkeeping and the forest pipeline
// ---------------------------------------------------------------------------

FlatForestBank::FlatForestBank(std::uint32_t featureCount)
    : forestBegin_{0}, featureCount_(featureCount) {
  if (featureCount >
      static_cast<std::uint32_t>(std::numeric_limits<std::int16_t>::max()) +
          1u) {
    throw std::invalid_argument(
        "FlatForestBank: featureCount exceeds the int16 node format");
  }
}

void FlatForestBank::checkFeatureCount(std::size_t featureCount) const {
  if (forestBegin_.empty() || featureCount != featureCount_) {
    throw std::invalid_argument(
        "FlatForestBank: dataset feature count does not match the bank");
  }
}

void FlatForestBank::closeForest() {
  forestBegin_.push_back(static_cast<std::uint32_t>(roots_.size()));
}

std::uint32_t FlatForestBank::pushNode(std::uint32_t treeRoot,
                                       std::size_t pos, std::size_t n) {
  if (feature_.size() >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("FlatForestBank: arena exceeds uint32 offsets");
  }
  const auto index = static_cast<std::uint32_t>(feature_.size());
  feature_.push_back(-1);
  left_.push_back(treeRoot);
  right_.push_back(treeRoot);
  prob_.push_back(
      n ? static_cast<float>(static_cast<double>(pos) / static_cast<double>(n))
        : 0.0f);
  return index;
}

/// The forest pipeline, shared by the packed and reference growers so
/// both draw identical bootstrap samples from the same rng stream.
/// `growTree` appends one tree grown on a row multiset.
template <typename GrowTree>
void FlatForestBank::growForest(std::size_t rowCount,
                                std::size_t positiveCount,
                                std::size_t featureCount,
                                const ForestParams& params,
                                std::uint64_t seed, GrowTree&& growTree) {
  checkFeatureCount(featureCount);
  if (rowCount == 0) {
    throw std::invalid_argument("FlatForestBank::addForest: empty dataset");
  }
  if (params.treeCount == 0) {
    throw std::invalid_argument(
        "FlatForestBank::addForest: treeCount must be > 0");
  }
  TreeParams treeParams = params.tree;
  if (treeParams.featuresPerSplit == 0) {
    treeParams.featuresPerSplit = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(featureCount))));
  }
  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> rows(rowCount);
  std::iota(rows.begin(), rows.end(), 0u);

  // Degenerate case short-cut: constant labels need a single leaf (frequent
  // for timing bits that never fail at a mild overclock).
  if (positiveCount == 0 || positiveCount == rowCount) {
    growTree(rows, TreeParams{0, 2, 1, 0}, rng);
    closeForest();
    return;
  }

  for (std::size_t t = 0; t < params.treeCount; ++t) {
    if (params.bootstrap) {
      std::uniform_int_distribution<std::uint32_t> pick(
          0, static_cast<std::uint32_t>(rowCount - 1));
      for (std::size_t i = 0; i < rowCount; ++i) rows[i] = pick(rng);
    }
    growTree(rows, treeParams, rng);
  }
  closeForest();
}

void FlatForestBank::addForest(const PackedView& data,
                               const ForestParams& params,
                               std::uint64_t seed) {
  growForest(data.rowCount, data.positiveCount(), data.featureCount(), params,
             seed,
             [&](std::span<const std::uint32_t> rows,
                 const TreeParams& treeParams, std::mt19937_64& rng) {
               growPacked(data, rows, treeParams, rng);
             });
}

void FlatForestBank::addForestReference(const Dataset& data,
                                        const ForestParams& params,
                                        std::uint64_t seed) {
  growForest(data.rowCount(), data.positiveCount(), data.featureCount(),
             params, seed,
             [&](std::span<const std::uint32_t> rows,
                 const TreeParams& treeParams, std::mt19937_64& rng) {
               growReference(data, rows, treeParams, rng);
             });
}

void FlatForestBank::addTree(const PackedView& data,
                             std::span<const std::uint32_t> rows,
                             const TreeParams& params, std::mt19937_64& rng) {
  checkFeatureCount(data.featureCount());
  growPacked(data, rows, params, rng);
  closeForest();
}

void FlatForestBank::addTreeReference(const Dataset& data,
                                      std::span<const std::uint32_t> rows,
                                      const TreeParams& params,
                                      std::mt19937_64& rng) {
  checkFeatureCount(data.featureCount());
  growReference(data, rows, params, rng);
  closeForest();
}

// ---------------------------------------------------------------------------
// Packed popcount grower
// ---------------------------------------------------------------------------

/// Per-tree state of the packed grower. A node's row multiset is a stack
/// of multiplicity bit-planes (`planeCount` x `wordCount` words): plane k
/// holds bit k of every row's repeat count, so weighted counts are
/// sum_k 2^k * popcount(plane_k & ...). Plain subsets are the
/// planeCount==1 special case.
struct FlatForestBank::PackedGrowContext {
  const PackedView& data;
  const TreeParams& params;
  std::mt19937_64& rng;
  std::size_t planeCount;
  std::size_t words;
  std::uint32_t root;                     // arena index of the tree root
  std::vector<std::uint32_t> candidates;  // scratch, rebuilt per node
};

/// One node's row multiset. Beyond the planes themselves it carries the
/// per-plane list of populated word indices — deep nodes are sparse, and
/// every scan (candidate counting, partitioning) touches only those words
/// — and the node's weighted (n, pos), which the parent knows from its
/// winning split, so nothing is ever rescanned to recover statistics.
struct FlatForestBank::PackedRows {
  std::vector<std::uint64_t> planes;               // planeCount x words
  std::vector<std::vector<std::uint32_t>> active;  // per plane
  std::size_t n = 0;    ///< weighted row count
  std::size_t pos = 0;  ///< weighted positive count
};

void FlatForestBank::growPacked(const PackedView& data,
                                std::span<const std::uint32_t> rows,
                                const TreeParams& params,
                                std::mt19937_64& rng) {
  if (rows.empty()) {
    throw std::invalid_argument("FlatForestBank: no training rows");
  }
  const std::size_t words = data.wordCount;
  // Row multiplicities (bootstrap samples repeat rows) as bit-planes,
  // built in one pass: adding a row is a bitwise ripple-carry increment
  // across the planes, growing a new plane only when the top one carries.
  PackedRows root;
  root.planes.assign(words, 0);
  std::size_t planeCount = 1;
  for (std::uint32_t r : rows) {
    if (r >= data.rowCount) {
      throw std::out_of_range("FlatForestBank: row index out of range");
    }
    const std::size_t w = r / 64;
    std::uint64_t carry = std::uint64_t{1} << (r % 64);
    for (std::size_t k = 0; k < planeCount && carry != 0; ++k) {
      std::uint64_t& plane = root.planes[k * words + w];
      const std::uint64_t old = plane;
      plane ^= carry;
      carry &= old;
    }
    if (carry != 0) {
      root.planes.resize((planeCount + 1) * words, 0);
      root.planes[planeCount * words + w] = carry;
      ++planeCount;
    }
  }
  root.active.resize(planeCount);
  root.n = rows.size();
  for (std::size_t k = 0; k < planeCount; ++k) {
    const std::uint64_t* plane = root.planes.data() + k * words;
    std::size_t cp = 0;
    for (std::size_t w = 0; w < words; ++w) {
      if (plane[w] != 0) {
        root.active[k].push_back(static_cast<std::uint32_t>(w));
        cp += static_cast<std::size_t>(std::popcount(plane[w] &
                                                     data.labels[w]));
      }
    }
    root.pos += cp << k;
  }
  const auto rootIndex = static_cast<std::uint32_t>(feature_.size());
  roots_.push_back(rootIndex);
  PackedGrowContext ctx{data, params, rng, planeCount, words, rootIndex, {}};
  (void)growPackedNode(ctx, root, 0);
}

std::uint32_t FlatForestBank::growPackedNode(PackedGrowContext& ctx,
                                             PackedRows& rows, int depth) {
  const std::size_t words = ctx.words;
  const std::size_t planeCount = ctx.planeCount;
  const std::uint64_t* labels = ctx.data.labels;
  const std::size_t n = rows.n;
  const std::size_t pos = rows.pos;

  const std::uint32_t nodeIndex = pushNode(ctx.root, pos, n);

  const bool pure = pos == 0 || pos == n;
  if (pure || depth >= ctx.params.maxDepth ||
      n < ctx.params.minSamplesSplit) {
    return nodeIndex;  // leaf
  }

  selectCandidates(ctx.data.featureCount(), ctx.params, ctx.rng,
                   ctx.candidates);

  const double parentImpurity = gini(pos, n);
  double bestGain = 1e-12;
  std::int32_t bestFeature = -1;
  std::size_t bestN1 = 0, bestPos1 = 0;
  for (std::uint32_t feat : ctx.candidates) {
    const std::uint64_t* col = ctx.data.columns[feat];
    std::size_t n1 = 0, pos1 = 0;
    for (std::size_t k = 0; k < planeCount; ++k) {
      const std::uint64_t* plane = rows.planes.data() + k * words;
      std::size_t c = 0, cp = 0;
      for (const std::uint32_t w : rows.active[k]) {
        const std::uint64_t m = plane[w] & col[w];
        c += static_cast<std::size_t>(std::popcount(m));
        cp += static_cast<std::size_t>(std::popcount(m & labels[w]));
      }
      n1 += c << k;
      pos1 += cp << k;
    }
    const std::size_t n0 = n - n1;
    const std::size_t pos0 = pos - pos1;
    if (n0 < ctx.params.minSamplesLeaf || n1 < ctx.params.minSamplesLeaf) {
      continue;
    }
    const double childImpurity =
        (static_cast<double>(n0) * gini(pos0, n0) +
         static_cast<double>(n1) * gini(pos1, n1)) /
        static_cast<double>(n);
    const double gain = parentImpurity - childImpurity;
    if (gain > bestGain) {
      bestGain = gain;
      bestFeature = static_cast<std::int32_t>(feat);
      bestN1 = n1;
      bestPos1 = pos1;
    }
  }
  if (bestFeature < 0) {
    return nodeIndex;  // no useful split found: leaf
  }

  // Partition: rows with the feature set split off into the right child,
  // the rest become the left child in place — plane & col / plane & ~col
  // preserve every row's multiplicity, and only the parent's active words
  // can be populated. The winning split's counts are the children's (n,
  // pos), so neither child rescans anything.
  const std::uint64_t* col =
      ctx.data.columns[static_cast<std::size_t>(bestFeature)];
  PackedRows right;
  right.planes.assign(planeCount * words, 0);
  right.active.resize(planeCount);
  for (std::size_t k = 0; k < planeCount; ++k) {
    std::uint64_t* leftPlane = rows.planes.data() + k * words;
    std::uint64_t* rightPlane = right.planes.data() + k * words;
    std::vector<std::uint32_t>& leftActive = rows.active[k];
    std::vector<std::uint32_t>& rightActive = right.active[k];
    std::size_t keep = 0;
    for (const std::uint32_t w : leftActive) {
      const std::uint64_t v = leftPlane[w];
      const std::uint64_t r = v & col[w];
      const std::uint64_t l = v ^ r;
      leftPlane[w] = l;
      if (l != 0) leftActive[keep++] = w;
      if (r != 0) {
        rightPlane[w] = r;
        rightActive.push_back(w);
      }
    }
    leftActive.resize(keep);
  }
  right.n = bestN1;
  right.pos = bestPos1;
  rows.n = n - bestN1;
  rows.pos = pos - bestPos1;

  feature_[nodeIndex] = static_cast<std::int16_t>(bestFeature);
  const std::uint32_t left = growPackedNode(ctx, rows, depth + 1);
  left_[nodeIndex] = left;
  const std::uint32_t rightIndex = growPackedNode(ctx, right, depth + 1);
  right_[nodeIndex] = rightIndex;
  return nodeIndex;
}

// ---------------------------------------------------------------------------
// Reference row-scan grower (the seed algorithm)
// ---------------------------------------------------------------------------

void FlatForestBank::growReference(const Dataset& data,
                                   std::span<const std::uint32_t> rows,
                                   const TreeParams& params,
                                   std::mt19937_64& rng) {
  if (rows.empty()) {
    throw std::invalid_argument("FlatForestBank: no training rows");
  }
  std::vector<std::uint32_t> work(rows.begin(), rows.end());
  const auto rootIndex = static_cast<std::uint32_t>(feature_.size());
  roots_.push_back(rootIndex);
  (void)growReferenceNode(data, work, 0, params, rng, rootIndex);
}

std::uint32_t FlatForestBank::growReferenceNode(
    const Dataset& data, std::vector<std::uint32_t>& rows, int depth,
    const TreeParams& params, std::mt19937_64& rng, std::uint32_t root) {
  const std::size_t n = rows.size();
  std::size_t pos = 0;
  for (std::uint32_t r : rows) pos += data.label(r) ? 1 : 0;

  const std::uint32_t nodeIndex = pushNode(root, pos, n);

  const bool pure = pos == 0 || pos == n;
  if (pure || depth >= params.maxDepth || n < params.minSamplesSplit) {
    return nodeIndex;  // leaf
  }

  std::vector<std::uint32_t> candidates;
  selectCandidates(data.featureCount(), params, rng, candidates);

  const double parentImpurity = gini(pos, n);
  double bestGain = 1e-12;
  std::int32_t bestFeature = -1;
  for (std::uint32_t feat : candidates) {
    std::size_t n1 = 0, pos1 = 0;
    for (std::uint32_t r : rows) {
      if (data.feature(r, feat) != 0) {
        ++n1;
        pos1 += data.label(r) ? 1 : 0;
      }
    }
    const std::size_t n0 = n - n1;
    const std::size_t pos0 = pos - pos1;
    if (n0 < params.minSamplesLeaf || n1 < params.minSamplesLeaf) continue;
    const double childImpurity =
        (static_cast<double>(n0) * gini(pos0, n0) +
         static_cast<double>(n1) * gini(pos1, n1)) /
        static_cast<double>(n);
    const double gain = parentImpurity - childImpurity;
    if (gain > bestGain) {
      bestGain = gain;
      bestFeature = static_cast<std::int32_t>(feat);
    }
  }
  if (bestFeature < 0) {
    return nodeIndex;  // no useful split found: leaf
  }

  // Partition rows in place: zeros first.
  auto mid = std::partition(rows.begin(), rows.end(),
                            [&](std::uint32_t r) {
                              return data.feature(
                                         r, static_cast<std::size_t>(
                                                bestFeature)) == 0;
                            });
  std::vector<std::uint32_t> rightRows(mid, rows.end());
  rows.erase(mid, rows.end());

  feature_[nodeIndex] = static_cast<std::int16_t>(bestFeature);
  const std::uint32_t left =
      growReferenceNode(data, rows, depth + 1, params, rng, root);
  left_[nodeIndex] = left;
  const std::uint32_t right =
      growReferenceNode(data, rightRows, depth + 1, params, rng, root);
  right_[nodeIndex] = right;
  return nodeIndex;
}

}  // namespace oisa::ml

// oisa_ml: the forest growers. Both append nodes straight into a
// FlatForestBank arena in pre-order with arena-absolute child indices;
// the packed popcount grower and the row-scan reference grower draw the
// same rng values and grow identical arenas.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "ml/flat_forest.h"

namespace oisa::ml {

namespace {

/// A node with fewer rows stays a leaf.
constexpr std::size_t kMinSamplesSplit = 4;
/// Each side of a split keeps at least this many rows.
constexpr std::size_t kMinSamplesLeaf = 1;

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
    growTree(rows, TreeParams{.maxDepth = 0}, rng);
    closeForest();
    return;
  }

  for (std::size_t t = 0; t < params.treeCount; ++t) {
    std::uniform_int_distribution<std::uint32_t> pick(
        0, static_cast<std::uint32_t>(rowCount - 1));
    for (std::size_t i = 0; i < rowCount; ++i) rows[i] = pick(rng);
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

/// Per-tree state of the packed grower. A node's row multiset is, per
/// multiplicity plane k, the ascending list of its populated words as
/// (word index, row bits) records: bit r%64 of the record for word r/64
/// is bit k of row r's repeat count, so weighted counts are
/// sum_k 2^k * popcount(bits & ...). Plain subsets are the one-plane
/// special case. Records live in slots: slot 0 holds the root, slot d the
/// right child last split off at depth d. A left child is compacted in
/// place in its parent's slot, and a right child at depth d stays in slot
/// d while the left subtree grows (that subtree only ever writes deeper
/// slots), so every split reuses storage and none allocates. Record
/// storage is never zeroed: only the ranges a split wrote are read.
struct FlatForestBank::PackedGrowContext {
  struct Slot {
    std::unique_ptr<std::uint32_t[]> word;  // record word indices
    std::unique_ptr<std::uint64_t[]> bits;  // record row bits
    std::vector<std::uint32_t> begin;       // per plane: first record
    std::vector<std::uint32_t> end;         // per plane: one past the last
  };

  const PackedView& data;
  const TreeParams& params;
  std::mt19937_64& rng;
  std::uint32_t root;      // arena index of the tree root
  std::size_t planeCount;  // planes of the root multiset
  std::size_t capacity;    // root record count: bounds every node's
  std::vector<Slot> slots;
  std::vector<std::uint32_t> candidates;  // scratch, rebuilt per node

  /// The slot holding right children at `depth`, sized on first use.
  Slot& slotAt(std::size_t depth) {
    if (slots.size() <= depth) slots.resize(depth + 1);
    Slot& slot = slots[depth];
    if (!slot.word) {
      slot.word = std::make_unique_for_overwrite<std::uint32_t[]>(capacity);
      slot.bits = std::make_unique_for_overwrite<std::uint64_t[]>(capacity);
      slot.begin.resize(planeCount);
      slot.end.resize(planeCount);
    }
    return slot;
  }
};

/// One node's row multiset: its slot and its weighted (n, pos), which the
/// parent knows from its winning split, so nothing is ever rescanned to
/// recover statistics.
struct FlatForestBank::PackedRows {
  std::size_t slot = 0;
  std::size_t n = 0;    ///< weighted row count
  std::size_t pos = 0;  ///< weighted positive count
};

namespace {

/// Bit j of the result is the low bit of byte j of `x`: each byte's bit
/// lands at position 56 + j of the product, and no partial products
/// overlap, so nothing carries.
[[nodiscard]] constexpr std::uint64_t gatherByteLowBits(
    std::uint64_t x) noexcept {
  return ((x & 0x0101010101010101ull) * 0x0102040810204080ull) >> 56;
}

/// Eight consecutive byte counts as one word, byte j = row j of the group
/// (oisa_ml requires a little-endian host; see serialize.cpp).
[[nodiscard]] std::uint64_t loadCounts(const std::uint8_t* p) noexcept {
  std::uint64_t x = 0;
  std::memcpy(&x, p, sizeof x);
  return x;
}

/// Adds plane k's weighted split counts of B candidate columns to n1
/// (rows with the feature set) and pos1 (positives among them), scoring
/// the plane's records in one pass so each record's word index, bits and
/// label word are loaded once per block instead of once per candidate.
template <std::size_t B>
void countCandidates(const std::uint64_t* const* cols,
                     const std::uint32_t* word, const std::uint64_t* bits,
                     std::size_t begin, std::size_t end,
                     const std::uint64_t* labels, std::size_t k,
                     std::size_t* n1, std::size_t* pos1) noexcept {
  std::array<std::size_t, B> ones{};
  std::array<std::size_t, B> positives{};
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t w = word[i];
    const std::uint64_t v = bits[i];
    const std::uint64_t positive = v & labels[w];
    for (std::size_t j = 0; j < B; ++j) {
      const std::uint64_t f = cols[j][w];
      ones[j] += static_cast<std::size_t>(std::popcount(v & f));
      positives[j] += static_cast<std::size_t>(std::popcount(positive & f));
    }
  }
  for (std::size_t j = 0; j < B; ++j) {
    n1[j] += ones[j] << k;
    pos1[j] += positives[j] << k;
  }
}

/// countCandidates by block size (1..4).
constexpr decltype(&countCandidates<1>) kCountCandidates[] = {
    nullptr, countCandidates<1>, countCandidates<2>, countCandidates<3>,
    countCandidates<4>};

}  // namespace

void FlatForestBank::growPacked(const PackedView& data,
                                std::span<const std::uint32_t> rows,
                                const TreeParams& params,
                                std::mt19937_64& rng) {
  if (rows.empty()) {
    throw std::invalid_argument("FlatForestBank: no training rows");
  }
  if (std::ranges::max(rows) >= data.rowCount) {
    throw std::out_of_range("FlatForestBank: row index out of range");
  }
  const std::size_t words = data.wordCount;
  // Counting build of the root multiset: one byte counter per row, then
  // the low eight planes read out of the counts eight rows per multiply.
  // A counter that wraps past 255 records the row, and those wrap counts
  // (multiples of 256) become planes 8 and up, so any multiplicity works.
  std::vector<std::uint8_t> counts(words * 64, 0);
  std::vector<std::uint32_t> wrapped;
  for (const std::uint32_t r : rows) {
    if (++counts[r] == 0) wrapped.push_back(r);
  }
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); i += 8) {
    seen |= loadCounts(counts.data() + i);
  }
  for (int shift = 32; shift >= 8; shift /= 2) seen |= seen >> shift;
  // (row, wrap count) runs, ascending by row.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> wraps;
  std::sort(wrapped.begin(), wrapped.end());
  std::uint32_t maxWraps = 0;
  for (const std::uint32_t r : wrapped) {
    if (wraps.empty() || wraps.back().first != r) wraps.emplace_back(r, 0);
    maxWraps = std::max(maxWraps, ++wraps.back().second);
  }
  const std::size_t lowPlanes =
      static_cast<std::size_t>(std::bit_width(seen & 0xffu));
  const std::size_t planeCount =
      wraps.empty() ? lowPlanes
                    : 8 + static_cast<std::size_t>(std::bit_width(maxWraps));

  // The root slot gives every plane a full row of words; child slots are
  // packed and need only the root's record count (set below).
  const auto rootIndex = static_cast<std::uint32_t>(feature_.size());
  PackedGrowContext ctx{
      data, params, rng, rootIndex, planeCount, planeCount * words, {}, {}};
  PackedGrowContext::Slot& root = ctx.slotAt(0);
  for (std::size_t k = 0; k < planeCount; ++k) {
    root.begin[k] = static_cast<std::uint32_t>(k * words);
    root.end[k] = root.begin[k];
  }
  std::size_t pos = 0;
  const std::size_t readPlanes = std::min<std::size_t>(planeCount, 8);
  for (std::size_t w = 0; w < words; ++w) {
    std::array<std::uint64_t, 8> plane{};
    for (std::size_t g = 0; g < 8; ++g) {
      const std::uint64_t x = loadCounts(counts.data() + w * 64 + g * 8);
      for (std::size_t k = 0; k < readPlanes; ++k) {
        plane[k] |= gatherByteLowBits(x >> k) << (g * 8);
      }
    }
    for (std::size_t k = 0; k < readPlanes; ++k) {
      std::uint32_t& at = root.end[k];
      root.word[at] = static_cast<std::uint32_t>(w);
      root.bits[at] = plane[k];
      at += plane[k] != 0 ? 1u : 0u;
      pos += static_cast<std::size_t>(std::popcount(plane[k] &
                                                    data.labels[w]))
             << k;
    }
  }
  for (std::size_t k = 8; k < planeCount; ++k) {
    std::uint32_t& at = root.end[k];
    for (const auto& [r, wrapCount] : wraps) {
      if (((wrapCount >> (k - 8)) & 1u) == 0) continue;
      const std::uint32_t w = r / 64;
      const std::uint64_t bit = std::uint64_t{1} << (r % 64);
      if (at > root.begin[k] && root.word[at - 1] == w) {
        root.bits[at - 1] |= bit;
      } else {
        root.word[at] = w;
        root.bits[at] = bit;
        ++at;
      }
      pos += static_cast<std::size_t>((data.labels[w] & bit) != 0) << k;
    }
  }
  ctx.capacity = 0;
  for (std::size_t k = 0; k < planeCount; ++k) {
    ctx.capacity += root.end[k] - root.begin[k];
  }

  roots_.push_back(rootIndex);
  (void)growPackedNode(ctx, PackedRows{0, rows.size(), pos}, 0);
}

std::uint32_t FlatForestBank::growPackedNode(PackedGrowContext& ctx,
                                             PackedRows rows, int depth) {
  const std::uint64_t* labels = ctx.data.labels;
  const std::size_t n = rows.n;
  const std::size_t pos = rows.pos;

  const std::uint32_t nodeIndex = pushNode(ctx.root, pos, n);

  const bool pure = pos == 0 || pos == n;
  if (pure || depth >= ctx.params.maxDepth || n < kMinSamplesSplit) {
    return nodeIndex;  // leaf
  }

  selectCandidates(ctx.data.featureCount(), ctx.params, ctx.rng,
                   ctx.candidates);

  // Score candidates four at a time, then judge their gains in candidate
  // order, so ties resolve to the earliest candidate as before.
  const auto childDepth = static_cast<std::size_t>(depth) + 1;
  PackedGrowContext::Slot& right = ctx.slotAt(childDepth);
  PackedGrowContext::Slot& src = ctx.slots[rows.slot];
  const double parentImpurity = gini(pos, n);
  double bestGain = 1e-12;
  std::int32_t bestFeature = -1;
  std::size_t bestN1 = 0, bestPos1 = 0;
  constexpr std::size_t kBlock = 4;
  for (std::size_t first = 0; first < ctx.candidates.size();
       first += kBlock) {
    const std::size_t block =
        std::min(kBlock, ctx.candidates.size() - first);
    std::array<const std::uint64_t*, kBlock> cols{};
    for (std::size_t j = 0; j < block; ++j) {
      cols[j] = ctx.data.columns[ctx.candidates[first + j]];
    }
    std::array<std::size_t, kBlock> n1{}, pos1{};
    for (std::size_t k = 0; k < ctx.planeCount; ++k) {
      if (src.begin[k] == src.end[k]) continue;
      kCountCandidates[block](cols.data(), src.word.get(), src.bits.get(),
                              src.begin[k], src.end[k], labels, k,
                              n1.data(), pos1.data());
    }
    for (std::size_t j = 0; j < block; ++j) {
      const std::size_t n0 = n - n1[j];
      const std::size_t pos0 = pos - pos1[j];
      if (n0 < kMinSamplesLeaf || n1[j] < kMinSamplesLeaf) continue;
      const double childImpurity =
          (static_cast<double>(n0) * gini(pos0, n0) +
           static_cast<double>(n1[j]) * gini(pos1[j], n1[j])) /
          static_cast<double>(n);
      const double gain = parentImpurity - childImpurity;
      if (gain > bestGain) {
        bestGain = gain;
        bestFeature = static_cast<std::int32_t>(ctx.candidates[first + j]);
        bestN1 = n1[j];
        bestPos1 = pos1[j];
      }
    }
  }
  if (bestFeature < 0) {
    return nodeIndex;  // no useful split found: leaf
  }

  // Partition, one branchless pass per plane: bits & col is appended to
  // the right child's slot, bits & ~col is compacted in place as the left
  // child. Both preserve every row's multiplicity, and the winning
  // split's counts are the children's (n, pos), so neither child rescans
  // anything.
  const std::uint64_t* col =
      ctx.data.columns[static_cast<std::size_t>(bestFeature)];
  std::uint32_t* const srcWord = src.word.get();
  std::uint64_t* const srcBits = src.bits.get();
  std::uint32_t* const rightWord = right.word.get();
  std::uint64_t* const rightBits = right.bits.get();
  std::uint32_t out = 0;
  for (std::size_t k = 0; k < ctx.planeCount; ++k) {
    const std::uint32_t end = src.end[k];
    std::uint32_t keep = src.begin[k];
    right.begin[k] = out;
    for (std::uint32_t i = keep; i < end; ++i) {
      const std::uint32_t w = srcWord[i];
      const std::uint64_t v = srcBits[i];
      const std::uint64_t r = v & col[w];
      const std::uint64_t l = v ^ r;
      rightWord[out] = w;
      rightBits[out] = r;
      out += r != 0 ? 1u : 0u;
      srcWord[keep] = w;
      srcBits[keep] = l;
      keep += l != 0 ? 1u : 0u;
    }
    src.end[k] = keep;
    right.end[k] = out;
  }

  feature_[nodeIndex] = static_cast<std::int16_t>(bestFeature);
  const std::uint32_t left = growPackedNode(
      ctx, PackedRows{rows.slot, n - bestN1, pos - bestPos1}, depth + 1);
  left_[nodeIndex] = left;
  const std::uint32_t rightIndex = growPackedNode(
      ctx, PackedRows{childDepth, bestN1, bestPos1}, depth + 1);
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
  if (pure || depth >= params.maxDepth || n < kMinSamplesSplit) {
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
    if (n0 < kMinSamplesLeaf || n1 < kMinSamplesLeaf) continue;
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

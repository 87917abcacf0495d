// oisa_ml: random forests as one flat, mmap-able arena — the only model
// representation.
//
// The paper's model is a Random Forest ("RFC alleviates overfitting by
// developing more than one decision tree and using their average result
// as final prediction") of CART trees over binary features. A *bank* of
// forests (the bit-level predictor's one forest per output bit) lives in
// one structure-of-arrays arena:
//
//   feature[i]  int16   split feature of node i (-1 = leaf)
//   left[i]     uint32  arena-absolute child when the feature is 0
//   right[i]    uint32  arena-absolute child when the feature is 1
//   prob[i]     float   P(positive) at node i (meaningful at leaves)
//
// plus a forest-major table of tree-root offsets. The growers append
// nodes straight into the arena in pre-order, so children always follow
// their parent (revalidated at every trust boundary): the arena is
// trivially acyclic and a walk always terminates. A leaf's children both
// point at its tree's root. The arrays are exactly what the binary model
// envelope v2 (serialize.h) writes, so a saved bank loads by mmap with
// zero per-node work: validate the header and CRC, then cast.
//
// Training runs on the packed column-major substrate: every candidate
// split's counts come from popcount(featureWord & rowBits), with
// bootstrap multiplicities carried as bit-planes. A node keeps, per
// plane, only its populated words as sparse (word index, bits) records,
// so after the bootstrap draw every step costs O(populated words): a
// counting pass builds the root's planes, candidates are scored four at
// a time over the records, and a split compacts the left child in place
// while the right child goes to a per-depth buffer the tree reuses, so
// no split allocates. The seed row-scan trainer is retained as the
// *Reference growers, which append the identical arena for the same
// inputs and rng state (the wheel-vs-heap differential pattern applied
// to training).
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "core/status.h"
#include "ml/dataset.h"

namespace oisa::ml {

/// Tree growth controls. A node under 4 rows stays a leaf, and a split
/// must leave at least one row on each side.
struct TreeParams {
  int maxDepth = 12;
  /// Features examined per split: 0 = all (plain CART); forests pass
  /// ~sqrt(featureCount) for decorrelation.
  std::size_t featuresPerSplit = 0;
};

/// Forest growth controls.
struct ForestParams {
  std::size_t treeCount = 10;
  TreeParams tree{};  ///< tree.featuresPerSplit 0 = auto (sqrt(featureCount))
};

/// Non-owning structure-of-arrays view over a whole bank arena. Spans
/// point either at a FlatForestBank's vectors or straight into an mmap-ed
/// model file (MappedForestBank).
struct FlatBankView {
  std::span<const std::int16_t> feature;
  std::span<const std::uint32_t> left;
  std::span<const std::uint32_t> right;
  std::span<const float> prob;
  /// All tree roots, forest-major (arena-absolute node indices).
  std::span<const std::uint32_t> roots;
  /// forestCount()+1 offsets into `roots`; forest f owns
  /// roots[forestBegin[f] .. forestBegin[f+1]).
  std::span<const std::uint32_t> forestBegin;
  /// Exclusive upper bound on split-feature indices (row length the bank
  /// was trained on).
  std::uint32_t featureCount = 0;

  [[nodiscard]] std::size_t forestCount() const noexcept {
    return forestBegin.empty() ? 0 : forestBegin.size() - 1;
  }
  [[nodiscard]] std::size_t nodeCount() const noexcept {
    return feature.size();
  }
};

/// One forest of a flat bank: the arena spans plus this forest's slice of
/// the root table. Cheap to construct per call; inference-only. Holds the
/// view by value (it is only spans), so constructing from a temporary
/// `bank.view()` is safe — the underlying arena must outlive the forest.
class FlatForest {
 public:
  FlatForest(const FlatBankView& bank, std::size_t forest) noexcept
      : bank_(bank),
        roots_(bank.roots.subspan(
            bank.forestBegin[forest],
            bank.forestBegin[forest + 1] - bank.forestBegin[forest])) {}

  [[nodiscard]] std::size_t treeCount() const noexcept {
    return roots_.size();
  }

  /// Mean leaf probability over the trees: the scalar walk, one byte per
  /// feature. Precondition: treeCount() > 0.
  [[nodiscard]] double probability(
      std::span<const std::uint8_t> features) const noexcept;

  [[nodiscard]] bool predict(
      std::span<const std::uint8_t> features) const noexcept {
    return probability(features) >= 0.5;
  }

  /// 64-lane masked forest walk: featureWords[f] carries feature f of
  /// lane L in bit L. Accumulates each lane's leaf probability tree by
  /// tree into sums[0..63] (caller-provided, NOT cleared here), divides
  /// by the tree count, and returns the mask of lanes with probability
  /// >= 0.5 — the scalar walk's summation order, so every lane equals
  /// probability() bit for bit. Allocation-free.
  /// Precondition: treeCount() > 0, sums zero-filled by the caller.
  [[nodiscard]] std::uint64_t predictWord(
      std::span<const std::uint64_t> featureWords,
      double* sums) const noexcept;

 private:
  void accumulateTreeLanes(std::uint32_t root, std::uint64_t mask,
                           std::span<const std::uint64_t> featureWords,
                           double* sums) const noexcept;

  FlatBankView bank_;
  std::span<const std::uint32_t> roots_;
};

/// Owning flat bank: the growers append forests straight into its arena.
class FlatForestBank {
 public:
  FlatForestBank() = default;

  /// An empty bank over rows of `featureCount` features. Throws
  /// std::invalid_argument past the int16 node format.
  explicit FlatForestBank(std::uint32_t featureCount);

  /// Appends a forest of params.treeCount trees grown on `data` by the
  /// packed popcount trainer: bootstrap samples and split-feature subsets
  /// are drawn from one rng seeded with `seed`. Constant labels grow a
  /// single one-leaf tree instead. Throws std::invalid_argument on an
  /// empty dataset, zero trees or a feature count unlike the bank's.
  void addForest(const PackedView& data, const ForestParams& params,
                 std::uint64_t seed = 1);

  /// Appends a one-tree forest grown on the row multiset `rows` (indices
  /// into `data`, duplicates carry multiplicity); `rng` drives feature
  /// subsampling when params.featuresPerSplit > 0. Throws
  /// std::invalid_argument on no rows, std::out_of_range on a bad index.
  void addTree(const PackedView& data, std::span<const std::uint32_t> rows,
               const TreeParams& params, std::mt19937_64& rng);

  /// The seed per-row-scan growers, retained as the differential-testing
  /// reference: same rng draws, same pre-order, identical arena.
  void addForestReference(const Dataset& data, const ForestParams& params,
                          std::uint64_t seed = 1);
  void addTreeReference(const Dataset& data,
                        std::span<const std::uint32_t> rows,
                        const TreeParams& params, std::mt19937_64& rng);

  [[nodiscard]] FlatBankView view() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return roots_.empty(); }

 private:
  struct PackedGrowContext;
  struct PackedRows;

  template <typename GrowTree>
  void growForest(std::size_t rowCount, std::size_t positiveCount,
                  std::size_t featureCount, const ForestParams& params,
                  std::uint64_t seed, GrowTree&& growTree);
  void checkFeatureCount(std::size_t featureCount) const;
  void closeForest();
  /// Appends one node (a leaf until its split is recorded) and returns
  /// its arena index.
  std::uint32_t pushNode(std::uint32_t treeRoot, std::size_t pos,
                         std::size_t n);
  void growPacked(const PackedView& data, std::span<const std::uint32_t> rows,
                  const TreeParams& params, std::mt19937_64& rng);
  std::uint32_t growPackedNode(PackedGrowContext& ctx, PackedRows rows,
                               int depth);
  void growReference(const Dataset& data, std::span<const std::uint32_t> rows,
                     const TreeParams& params, std::mt19937_64& rng);
  std::uint32_t growReferenceNode(const Dataset& data,
                                  std::vector<std::uint32_t>& rows, int depth,
                                  const TreeParams& params,
                                  std::mt19937_64& rng, std::uint32_t root);

  std::vector<std::int16_t> feature_;
  std::vector<std::uint32_t> left_;
  std::vector<std::uint32_t> right_;
  std::vector<float> prob_;
  std::vector<std::uint32_t> roots_;
  std::vector<std::uint32_t> forestBegin_;
  std::uint32_t featureCount_ = 0;
};

/// Structural validation of a (possibly just-cast) bank view: offset
/// table shape, root/child bounds, split features within featureCount,
/// and the children-follow-parent ordering that guarantees acyclic
/// walks. One linear scan, no allocation — the only per-node work a
/// loaded bank ever gets. Returns Corruption with a located diagnostic.
[[nodiscard]] core::Status validateFlatBank(const FlatBankView& bank);

}  // namespace oisa::ml

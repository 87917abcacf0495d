#include "ml/flat_forest.h"

#include <array>
#include <bit>
#include <string>

namespace oisa::ml {

double FlatForest::probability(
    std::span<const std::uint8_t> features) const noexcept {
  const FlatBankView& b = bank_;
  double sum = 0.0;
  for (const std::uint32_t root : roots_) {
    std::uint32_t idx = root;
    while (b.feature[idx] >= 0) {
      idx = features[static_cast<std::size_t>(b.feature[idx])] ? b.right[idx]
                                                              : b.left[idx];
    }
    sum += b.prob[idx];
  }
  return sum / static_cast<double>(roots_.size());
}

void FlatForest::accumulateTreeLanes(
    std::uint32_t idx, std::uint64_t mask,
    std::span<const std::uint64_t> featureWords,
    double* sums) const noexcept {
  // Lane-mask traversal: each (node, mask) pair splits its lanes by the
  // feature word and follows only populated sides, so one walk serves all
  // 64 lanes. Pending right branches live on a fixed-size explicit stack;
  // grown trees are capped far below 64 levels, and a deeper (hand-built)
  // tree spills into recursion rather than overflowing. Any bank that
  // passed validateFlatBank terminates: children strictly follow their
  // parent.
  const FlatBankView& b = bank_;
  struct Frame {
    std::uint32_t idx;
    std::uint64_t mask;
  };
  std::array<Frame, 64> stack;
  std::size_t top = 0;
  for (;;) {
    while (b.feature[idx] >= 0) {
      const auto feat = static_cast<std::size_t>(b.feature[idx]);
      const std::uint64_t right = mask & featureWords[feat];
      const std::uint64_t left = mask ^ right;
      if (right == 0) {
        idx = b.left[idx];
        continue;
      }
      if (left == 0) {
        idx = b.right[idx];
        mask = right;
        continue;
      }
      if (top < stack.size()) {
        stack[top++] = Frame{b.right[idx], right};
      } else {
        accumulateTreeLanes(b.right[idx], right, featureWords, sums);
      }
      idx = b.left[idx];
      mask = left;
    }
    const double p = b.prob[idx];
    if (mask == ~std::uint64_t{0}) {
      for (std::size_t lane = 0; lane < 64; ++lane) sums[lane] += p;
    } else {
      std::uint64_t m = mask;
      while (m != 0) {
        sums[std::countr_zero(m)] += p;
        m &= m - 1;
      }
    }
    if (top == 0) return;
    --top;
    idx = stack[top].idx;
    mask = stack[top].mask;
  }
}

std::uint64_t FlatForest::predictWord(
    std::span<const std::uint64_t> featureWords, double* sums) const noexcept {
  for (const std::uint32_t root : roots_) {
    accumulateTreeLanes(root, ~std::uint64_t{0}, featureWords, sums);
  }
  const auto count = static_cast<double>(roots_.size());
  std::uint64_t predictions = 0;
  for (std::size_t lane = 0; lane < 64; ++lane) {
    sums[lane] = sums[lane] / count;
    if (sums[lane] >= 0.5) predictions |= std::uint64_t{1} << lane;
  }
  return predictions;
}

FlatBankView FlatForestBank::view() const noexcept {
  FlatBankView v;
  v.feature = feature_;
  v.left = left_;
  v.right = right_;
  v.prob = prob_;
  v.roots = roots_;
  v.forestBegin = forestBegin_;
  v.featureCount = featureCount_;
  return v;
}

core::Status validateFlatBank(const FlatBankView& bank) {
  const auto corrupt = [](std::string what) {
    return core::Status::corruption("flat bank: " + std::move(what));
  };
  if (bank.forestBegin.empty()) {
    return corrupt("missing forest offset table");
  }
  if (bank.left.size() != bank.nodeCount() ||
      bank.right.size() != bank.nodeCount() ||
      bank.prob.size() != bank.nodeCount()) {
    return corrupt("node array lengths disagree");
  }
  if (bank.forestBegin.front() != 0 ||
      bank.forestBegin.back() != bank.roots.size()) {
    return corrupt("forest offset table does not span the root table");
  }
  for (std::size_t f = 1; f < bank.forestBegin.size(); ++f) {
    if (bank.forestBegin[f] < bank.forestBegin[f - 1]) {
      return corrupt("forest offset table not monotonic at entry " +
                     std::to_string(f));
    }
    if (bank.forestBegin[f] == bank.forestBegin[f - 1]) {
      // An empty forest would make predictWord divide by zero; the
      // growers never emit one (every forest has at least one tree).
      return corrupt("forest " + std::to_string(f - 1) + " has no trees");
    }
  }
  const auto nodes = static_cast<std::uint32_t>(bank.nodeCount());
  for (std::size_t t = 0; t < bank.roots.size(); ++t) {
    if (bank.roots[t] >= nodes) {
      return corrupt("tree root " + std::to_string(t) + " out of range");
    }
  }
  for (std::uint32_t i = 0; i < nodes; ++i) {
    const std::int16_t feat = bank.feature[i];
    if (feat < 0) continue;  // leaf: children unused
    if (static_cast<std::uint32_t>(feat) >= bank.featureCount) {
      return corrupt("node " + std::to_string(i) + " splits feature " +
                     std::to_string(feat) + " past featureCount " +
                     std::to_string(bank.featureCount));
    }
    // Children strictly after the parent: the growers' append order,
    // and the property that makes any walk provably terminate.
    if (bank.left[i] <= i || bank.left[i] >= nodes || bank.right[i] <= i ||
        bank.right[i] >= nodes) {
      return corrupt("node " + std::to_string(i) +
                     " child offsets out of order");
    }
  }
  return core::Status::ok();
}

}  // namespace oisa::ml

#include "ml/importance.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace oisa::ml {

namespace {

void normalize(std::vector<double>& importance) {
  const double total =
      std::accumulate(importance.begin(), importance.end(), 0.0);
  if (total > 0.0) {
    for (double& v : importance) v /= total;
  }
}

}  // namespace

std::vector<double> featureImportance(const FlatBankView& bank,
                                      std::size_t forest) {
  const std::size_t featureCount = bank.featureCount;
  std::vector<double> importance(featureCount, 0.0);
  std::vector<double> tree(featureCount);
  std::vector<std::pair<std::uint32_t, int>> stack;
  for (std::uint32_t t = bank.forestBegin[forest];
       t < bank.forestBegin[forest + 1]; ++t) {
    // Iterative walk carrying depth; weight = 2^-depth approximates the
    // fraction of samples reaching the node.
    std::fill(tree.begin(), tree.end(), 0.0);
    stack.assign(1, {bank.roots[t], 0});
    while (!stack.empty()) {
      const auto [idx, depth] = stack.back();
      stack.pop_back();
      const std::int16_t feat = bank.feature[idx];
      if (feat < 0) continue;
      tree[static_cast<std::size_t>(feat)] += std::ldexp(1.0, -depth);
      stack.emplace_back(bank.left[idx], depth + 1);
      stack.emplace_back(bank.right[idx], depth + 1);
    }
    normalize(tree);
    for (std::size_t i = 0; i < featureCount; ++i) importance[i] += tree[i];
  }
  normalize(importance);
  return importance;
}

}  // namespace oisa::ml

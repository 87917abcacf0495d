// oisa_ml: split-based feature importance.
//
// Trees don't store impurity gains, so importance is estimated from split
// usage weighted by node population share (approximated by 2^-depth: a
// split nearer the root sees more samples). Good enough to rank features —
// the predictor uses it to show that the paper's {x[t-1], yRTL} features
// carry real signal.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/flat_forest.h"

namespace oisa::ml {

/// Importance of forest `forest` of `bank`, one entry per feature: each
/// tree's weighted split usage normalized to sum 1 (all zeros for a
/// one-leaf tree), summed over the trees, normalized again.
[[nodiscard]] std::vector<double> featureImportance(const FlatBankView& bank,
                                                    std::size_t forest);

}  // namespace oisa::ml

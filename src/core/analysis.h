// oisa_core: closed-form analysis of ISA structural errors under uniform
// random operands.
//
// Carry speculation fails at a path boundary exactly when the speculation
// window is all-propagate and a carry arrives at the window start; with
// uniform operands these events have simple closed forms, which the
// property tests cross-check against Monte-Carlo measurements of the
// behavioral model. Where exact expressions would require joint carry
// distributions (multi-boundary correlation, post-fault sum distributions)
// the functions document their independence approximations.
#pragma once

#include <cstdint>

#include "core/error_model.h"
#include "core/isa_config.h"

namespace oisa::core {

/// P(carry into bit `bitIndex`) of an exact addition of uniform random
/// operands with carry-in 0: (1 - 2^-bitIndex) / 2.
[[nodiscard]] double carryProbability(int bitIndex) noexcept;

/// P(speculation fault at path `pathIndex` >= 1) for uniform operands:
/// the S-bit window is all-propagate (2^-S) and a carry reaches the window
/// start. Exact (no approximation). Path 0 never faults.
[[nodiscard]] double faultProbability(const IsaConfig& cfg, int pathIndex);

/// Expected number of speculation faults per addition: sum of the per-path
/// fault probabilities (exact by linearity, despite cross-path
/// correlation).
[[nodiscard]] double meanFaultsPerAddition(const IsaConfig& cfg);

/// P(a fault at this path is repaired by the +-1 correction): the C LSBs
/// of the local sum are uniform, so correction fails with probability
/// 2^-C (all-ones guard). Exact; 0 when C == 0.
[[nodiscard]] double correctionProbability(const IsaConfig& cfg) noexcept;

/// P(E_struct != 0) assuming independent per-path uncompensated faults:
/// 1 - prod(1 - p_i * 2^-C). Cross-path carries are weakly correlated, so
/// this is an approximation (tests allow a few percent of slack).
[[nodiscard]] double structuralErrorRateApprox(const IsaConfig& cfg);

/// Expected signed structural error per addition, assuming per-fault
/// contributions are independent and the preceding sum's balanced MSBs are
/// uniform: sum_i p_i * 2^-C * (-2^(iK) + balancingGain_i). Approximate.
[[nodiscard]] double expectedStructuralErrorApprox(const IsaConfig& cfg);

/// Monte-Carlo measurement of the behavioral model's structural errors
/// under uniform random operands — the empirical counterpart of the closed
/// forms above (property tests cross-check the two; ablation_compensation
/// and design_space read their error columns from it). Draws `samples`
/// uniform operand pairs (carry-in 0; a, then b, from
/// std::mt19937_64(seed)) through the behavioral adder and folds each
/// sample's full output values (y_diamond, y_gold, y_gold): read E_struct
/// from arithStruct() and its relative form from relStruct().
/// Deterministic for a given seed; samples are drawn in 64-bit words so
/// results are independent of the adder width.
[[nodiscard]] ErrorCombination sampleStructuralErrors(const IsaConfig& cfg,
                                                      std::uint64_t samples,
                                                      std::uint64_t seed);

}  // namespace oisa::core

// oisa_core: the paper's combined structural + timing error model (Sec. IV).
//
// Three output values per cycle:
//   y_diamond — ideal output of an exact addition,
//   y_gold    — expected output of the implemented (inexact) circuit:
//               structural errors only,
//   y_silver  — output of the over-clocked implemented circuit: structural
//               plus timing errors.
// Signed arithmetic errors:   E_struct = y_gold  - y_diamond
//                             E_timing = y_silver - y_gold
//                             E_joint  = E_struct + E_timing
// Relative errors divide both contributions by the *exact* result
// y_diamond (eq. 3), keeping signs so contributions may add (Fig. 4) or
// compensate (Fig. 5).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/error_stats.h"

namespace oisa::core {

/// One cycle's worth of the three abstraction-level outputs.
struct OutputTriple {
  std::uint64_t diamond = 0;  ///< exact addition result
  std::uint64_t gold = 0;     ///< properly-clocked inexact circuit
  std::uint64_t silver = 0;   ///< over-clocked inexact circuit
};

/// Signed per-cycle error decomposition. Each error is the wrapped
/// difference of two composed values, read as two's complement: composed
/// values may use bit 63 at widths 63-64, where int64 casts of the values
/// would overflow.
struct ErrorSample {
  std::int64_t eStruct = 0;
  std::int64_t eTiming = 0;
  std::int64_t eJoint = 0;  ///< == eStruct + eTiming (mod 2^64) always
  std::optional<double> reStruct;          ///< empty when y_diamond == 0
  std::optional<double> reTiming;
  std::optional<double> reJoint;
};

/// Decomposes one output triple into signed error contributions.
[[nodiscard]] ErrorSample decomposeErrors(const OutputTriple& t) noexcept;

/// Streaming accumulator implementing the Fig. 6 pseudo-code: feed one
/// OutputTriple per cycle, read off the per-contribution statistics.
class ErrorCombination {
 public:
  /// Records one cycle. Cycles with y_diamond == 0 contribute to the
  /// arithmetic statistics but are skipped for relative errors (division by
  /// the exact result is undefined); `skippedRelative()` counts them.
  void add(const OutputTriple& t) noexcept;

  /// Records `triples` in order, bit for bit like one add() per triple,
  /// folding each contribution's zero errors as one count
  /// (ErrorStats::addZeros: no term is -0.0, so +0.0 never moves a sum).
  void add(std::span<const OutputTriple> triples) noexcept;

  [[nodiscard]] const ErrorStats& arithStruct() const noexcept {
    return eStruct_;
  }
  [[nodiscard]] const ErrorStats& arithTiming() const noexcept {
    return eTiming_;
  }
  [[nodiscard]] const ErrorStats& arithJoint() const noexcept {
    return eJoint_;
  }
  [[nodiscard]] const ErrorStats& relStruct() const noexcept {
    return reStruct_;
  }
  [[nodiscard]] const ErrorStats& relTiming() const noexcept {
    return reTiming_;
  }
  [[nodiscard]] const ErrorStats& relJoint() const noexcept {
    return reJoint_;
  }
  [[nodiscard]] std::uint64_t skippedRelative() const noexcept {
    return skipped_;
  }
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }

 private:
  ErrorStats eStruct_, eTiming_, eJoint_;
  ErrorStats reStruct_, reTiming_, reJoint_;
  std::uint64_t skipped_ = 0;
  std::uint64_t cycles_ = 0;
};

}  // namespace oisa::core

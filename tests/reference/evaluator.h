// oisa_reference: zero-delay functional evaluation, one pattern at a time.
//
// Evaluates a netlist as a pure boolean function, one byte per net. The
// golden reference the shipped engines are judged against: BatchEvaluator
// lane for lane, the timed simulators as T -> infinity, and generated
// netlists against their behavioral models. bench/micro_batch_eval uses it
// as the speedup baseline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace oisa::netlist {

/// Reusable zero-delay evaluator: each evaluation is one sweep over the
/// gates in index order, which the builder makes a topological order.
class Evaluator {
 public:
  explicit Evaluator(const Netlist& nl);

  /// Evaluates with the given primary-input values (one per primary input,
  /// in declaration order) and returns net values for the whole netlist.
  /// The result vector is indexed by NetId::value.
  [[nodiscard]] std::vector<std::uint8_t> evaluate(
      std::span<const std::uint8_t> inputValues) const;

  /// Evaluates and returns only the primary-output values, in declaration
  /// order.
  [[nodiscard]] std::vector<std::uint8_t> evaluateOutputs(
      std::span<const std::uint8_t> inputValues) const;

  /// Convenience for arithmetic circuits: packs inputs from a 64-bit word
  /// (bit i of `word` drives primary input i) and returns outputs packed the
  /// same way (output i becomes bit i). Requires <= 64 inputs / outputs.
  [[nodiscard]] std::uint64_t evaluateWord(std::uint64_t word) const;

  [[nodiscard]] const Netlist& netlist() const noexcept { return nl_; }

 private:
  const Netlist& nl_;
};

}  // namespace oisa::netlist

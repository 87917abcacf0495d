// oisa_reference: serial single-pattern stuck-at reference simulator.
//
// The textbook baseline every fast fault simulator is validated against:
// for one input pattern and one fault, re-simulate the whole netlist with
// the fault injected and compare primary outputs against the good
// machine. O(gates) per (fault, pattern) with no propagation shortcuts —
// deliberately simple, so the differential tests and the
// bench/micro_fault_sim speedup baseline rest on independently-obvious
// code rather than on a second clever engine.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault_model.h"
#include "netlist/compiled_netlist.h"

namespace oisa::fault {

/// One-pattern-at-a-time reference fault simulator.
class SerialFaultSimulator {
 public:
  explicit SerialFaultSimulator(
      std::shared_ptr<const netlist::CompiledNetlist> compiled);

  /// Loads a pattern (one bit per primary input, declaration order) and
  /// simulates the good machine.
  void setPattern(std::span<const std::uint8_t> inputBits);

  /// Good-machine net values for the current pattern, indexed by NetId.
  [[nodiscard]] const std::vector<std::uint8_t>& goodValues() const noexcept {
    return good_;
  }

  /// Good-machine primary-output values, declaration order.
  [[nodiscard]] std::vector<std::uint8_t> goodOutputs() const;

  /// Full faulty re-simulation of the current pattern: primary-output
  /// values of the machine containing `f`.
  [[nodiscard]] std::vector<std::uint8_t> faultyOutputs(const Fault& f) const;

  /// True when `f` flips at least one primary output on the current
  /// pattern.
  [[nodiscard]] bool detects(const Fault& f) const;

  [[nodiscard]] const std::shared_ptr<const netlist::CompiledNetlist>&
  compiled() const noexcept {
    return compiled_;
  }

 private:
  void simulate(std::span<const std::uint8_t> inputBits, const Fault* f,
                std::vector<std::uint8_t>& values) const;

  std::shared_ptr<const netlist::CompiledNetlist> compiled_;
  std::vector<std::uint8_t> pattern_;
  std::vector<std::uint8_t> good_;
  mutable std::vector<std::uint8_t> scratch_;
};

}  // namespace oisa::fault

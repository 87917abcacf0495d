// oisa_netlist: immutable compiled form of a Netlist, shared by engines.
//
// Every evaluation engine used to flatten the same structure privately at
// construction: CSR fanout with packed pin masks, 8-entry truth tables,
// dense per-gate input/output net indices, and the settled all-inputs-low
// state. CompiledNetlist extracts that one flattening into an immutable,
// shareable object: the functional BatchEvaluator, the PPSFP fault engine
// and the timed event wheel (timing::LaneTimedSimulator) all construct
// from the same compiled substrate, so a pipeline that runs several
// engines over one design compiles the netlist exactly once.
//
// Gate records keep the Netlist's gate indices, and a Netlist's gate index
// order is a topological order (see netlist.h): every engine that needs
// dependency order sweeps gate(0) .. gate(gateCount() - 1).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace oisa::netlist {

/// Immutable, engine-agnostic flattening of one Netlist.
///
/// Lifetime: holds a reference to the source Netlist (for port/name
/// queries only; all hot-path structure is copied into dense arrays), so
/// the Netlist must outlive the compile — the same contract the engines
/// already had individually.
class CompiledNetlist {
 public:
  /// Dense per-gate record. Unused input slots point at net 0, which is
  /// always a valid index; gate functions ignore operands beyond their
  /// arity, so engines may load all three inputs unconditionally.
  struct GateRec {
    std::array<std::uint32_t, 3> in{};
    std::uint32_t out = 0;
    GateKind kind = GateKind::Const0;
    std::uint8_t truth = 0;  ///< 8-entry truth table, bit m = f(minterm m)
  };

  /// Compiles `nl` into a shareable immutable form.
  [[nodiscard]] static std::shared_ptr<const CompiledNetlist> compile(
      const Netlist& nl) {
    return std::make_shared<const CompiledNetlist>(nl);
  }

  explicit CompiledNetlist(const Netlist& nl);

  [[nodiscard]] const Netlist& source() const noexcept { return *nl_; }
  [[nodiscard]] std::size_t netCount() const noexcept { return netCount_; }
  [[nodiscard]] std::size_t gateCount() const noexcept {
    return gates_.size();
  }
  [[nodiscard]] const GateRec& gate(std::uint32_t gi) const noexcept {
    return gates_[gi];
  }

  /// Primary input / output net indices, in declaration order.
  [[nodiscard]] std::span<const std::uint32_t> inputNets() const noexcept {
    return inputNets_;
  }
  [[nodiscard]] std::span<const std::uint32_t> outputNets() const noexcept {
    return outputNets_;
  }

  /// CSR fanout: readers()[fanoutOffsets()[n] .. fanoutOffsets()[n+1]) are
  /// the gates reading net n, each entry packing `gateIndex << 3` with the
  /// minterm bits the net drives in its low 3 bits (a net wired to several
  /// pins of one gate is merged into a single entry with the combined
  /// mask).
  [[nodiscard]] std::span<const std::uint32_t> fanoutOffsets() const noexcept {
    return fanoutOffsets_;
  }
  [[nodiscard]] std::span<const std::uint32_t> readers() const noexcept {
    return readers_;
  }

  /// The settled "powered up with all primary inputs low" net values (one
  /// byte per net, indexed by NetId) — the timed engines' reset state.
  [[nodiscard]] std::span<const std::uint8_t> zeroState() const noexcept {
    return zeroState_;
  }

 private:
  const Netlist* nl_;
  std::size_t netCount_ = 0;
  std::vector<GateRec> gates_;
  std::vector<std::uint32_t> inputNets_;
  std::vector<std::uint32_t> outputNets_;
  std::vector<std::uint32_t> fanoutOffsets_;
  std::vector<std::uint32_t> readers_;
  std::vector<std::uint8_t> zeroState_;
};

}  // namespace oisa::netlist

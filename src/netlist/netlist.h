// oisa_netlist: gate-level intermediate representation.
//
// A Netlist owns nets and gates. Every net has exactly one driver (a gate, a
// primary input, or a constant) and any number of readers. The builder API
// (`input`, `gate`, `output`, ...) is what circuit generators use; fanout
// maps and stats live here too because they are pure structure queries.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "netlist/gate.h"

namespace oisa::netlist {

/// Strongly-typed handle to a net (a single-bit signal).
struct NetId {
  std::uint32_t value = kInvalid;
  static constexpr std::uint32_t kInvalid = 0xffffffff;

  [[nodiscard]] constexpr bool valid() const noexcept {
    return value != kInvalid;
  }
  friend constexpr bool operator==(NetId, NetId) = default;
};

/// Strongly-typed handle to a gate instance.
struct GateId {
  std::uint32_t value = kInvalid;
  static constexpr std::uint32_t kInvalid = 0xffffffff;

  [[nodiscard]] constexpr bool valid() const noexcept {
    return value != kInvalid;
  }
  friend constexpr bool operator==(GateId, GateId) = default;
};

/// A gate instance: kind + input nets + single output net.
struct Gate {
  GateKind kind = GateKind::Const0;
  std::array<NetId, 3> in{};  ///< only the first gateArity(kind) entries used
  NetId out{};

  [[nodiscard]] std::span<const NetId> inputs() const noexcept {
    return {in.data(), static_cast<std::size_t>(gateArity(kind))};
  }
};

/// How a net is driven.
enum class DriverKind : std::uint8_t { PrimaryInput, Gate };

/// A single-bit signal.
struct Net {
  std::string name;
  DriverKind driver = DriverKind::PrimaryInput;
  GateId driverGate{};  ///< valid iff driver == DriverKind::Gate
};

/// Per-kind gate population of a netlist (area/report helper).
struct GateHistogram {
  std::array<std::size_t, kGateKindCount> counts{};

  [[nodiscard]] std::size_t total() const noexcept;
  [[nodiscard]] std::size_t of(GateKind kind) const noexcept {
    return counts[static_cast<std::size_t>(kind)];
  }
};

/// Gate-level netlist with single-output gates and named ports.
///
/// Invariant, enforced by the builder alone: `gate` reads only nets that
/// already exist, so every gate reads only primary inputs and outputs of
/// lower-indexed gates. Gate index order is therefore a topological
/// order: passes that need dependency order sweep gates 0..n-1 (or
/// n-1..0 backwards), and no netlist can hold a combinational cycle.
class Netlist {
 public:
  explicit Netlist(std::string name = "top") : name_(std::move(name)) {}

  // --- builder API -------------------------------------------------------

  /// Creates a primary input net.
  NetId input(std::string name);

  /// Creates a gate of `kind` reading `ins`; returns its fresh output net.
  NetId gate(GateKind kind, std::span<const NetId> ins,
             std::string outName = {});

  /// Convenience overloads for fixed arities.
  NetId gate1(GateKind kind, NetId a, std::string outName = {});
  NetId gate2(GateKind kind, NetId a, NetId b, std::string outName = {});
  NetId gate3(GateKind kind, NetId a, NetId b, NetId c,
              std::string outName = {});

  /// Returns a (cached) constant-0 / constant-1 net.
  NetId constant(bool value);

  /// Declares `net` as a primary output named `name`.
  void output(std::string name, NetId net);

  // --- structure queries --------------------------------------------------

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t netCount() const noexcept { return nets_.size(); }
  [[nodiscard]] std::size_t gateCount() const noexcept {
    return gates_.size();
  }
  [[nodiscard]] const Net& net(NetId id) const { return nets_.at(id.value); }
  [[nodiscard]] const Gate& gateAt(GateId id) const {
    return gates_.at(id.value);
  }
  [[nodiscard]] std::span<const NetId> primaryInputs() const noexcept {
    return inputs_;
  }
  [[nodiscard]] std::span<const NetId> primaryOutputs() const noexcept {
    return outputs_;
  }
  [[nodiscard]] const std::string& outputName(std::size_t i) const {
    return outputNames_.at(i);
  }

  /// Readers of each net: fanout[net] = gates whose inputs include net.
  [[nodiscard]] std::vector<std::vector<GateId>> fanoutMap() const;

  /// Fanout count per net (cheaper than fanoutMap when only sizes matter);
  /// primary outputs count as one extra load each.
  [[nodiscard]] std::vector<std::uint32_t> fanoutCounts() const;

  /// Gate population per kind.
  [[nodiscard]] GateHistogram histogram() const;

 private:
  NetId makeNet(std::string name, DriverKind driver, GateId driverGate);

  std::string name_;
  std::vector<Net> nets_;
  std::vector<Gate> gates_;
  std::vector<NetId> inputs_;
  std::vector<NetId> outputs_;
  std::vector<std::string> outputNames_;
  std::optional<NetId> const0_;
  std::optional<NetId> const1_;
};

}  // namespace oisa::netlist

// oisa_circuits: gate-level adder generators.
//
// Four classic topologies with different delay/area trade-offs. The
// synthesis selector (synthesis.h) picks the cheapest one meeting the path
// timing budget, mimicking what a synthesis tool does under a delay
// constraint.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace oisa::circuits {

/// Available sub-adder structures, cheapest/slowest first (the synthesis
/// selector walks this order under a delay constraint).
enum class AdderTopology {
  RippleCarry,    ///< full-adder chain: minimal area, O(n) delay
  CarrySelect,    ///< ripple groups computed for both carries, muxed
  CarryLookahead, ///< 4-bit look-ahead groups, group carry rippled
  BrentKung,      ///< sparse prefix tree: 2log2(n) depth, minimal nodes
  Sklansky,       ///< minimal-depth prefix tree, high fanout at tree roots
  KoggeStone,     ///< minimal-depth, minimal-fanout prefix tree, most area
  HanCarlson,     ///< Kogge-Stone on odd bits, ripple fix-up: balanced cost
};

[[nodiscard]] std::string_view topologyName(AdderTopology t) noexcept;

/// All topologies, cheapest first.
[[nodiscard]] std::span<const AdderTopology> allTopologies() noexcept;

/// Topologies the constraint-driven synthesis selector walks (cheapest
/// first). Excludes CarrySelect: its duplicated dual-rail datapath roughly
/// doubles switching activity, which a power-driven flow (our synthesis
/// model runs power recovery) rejects.
[[nodiscard]] std::span<const AdderTopology> selectionTopologies() noexcept;

/// Nets produced by an adder builder.
struct AdderPorts {
  std::vector<netlist::NetId> sum;  ///< n sum bits, LSB first
  netlist::NetId carryOut;
};

/// Builds an n-bit adder over existing nets `a` and `b` (equal sizes,
/// LSB first) with an optional carry-in net, using the given topology.
/// Returns the freshly created sum/carry nets.
[[nodiscard]] AdderPorts buildAdder(netlist::Netlist& nl,
                                    std::span<const netlist::NetId> a,
                                    std::span<const netlist::NetId> b,
                                    std::optional<netlist::NetId> carryIn,
                                    AdderTopology topology);

/// Balanced AND-tree (2/3-ary) over `nets`; requires at least one net.
[[nodiscard]] netlist::NetId andTree(netlist::Netlist& nl,
                                     std::span<const netlist::NetId> nets);

/// Balanced OR-tree (2/3-ary) over `nets`; requires at least one net.
[[nodiscard]] netlist::NetId orTree(netlist::Netlist& nl,
                                    std::span<const netlist::NetId> nets);

}  // namespace oisa::circuits

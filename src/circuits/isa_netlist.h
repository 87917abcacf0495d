// oisa_circuits: full gate-level ISA generator.
//
// Generates the paper's Fig. 1 structure: N/K concurrent speculative paths,
// each with a SPEC carry speculator, a sub-ADDer and a COMP error
// compensation block. The exact design is a single full-width adder. The
// generated netlist is bit-identical to the behavioral oisa_core::IsaAdder
// (cross-checked by tests).
//
// Port convention: primary inputs a0..a{N-1}, b0..b{N-1}, cin (in that
// order); primary outputs s0..s{N-1}, cout.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "circuits/adder_topologies.h"
#include "core/isa_config.h"
#include "netlist/netlist.h"

namespace oisa::circuits {

/// Structural generation choices.
struct IsaBuildOptions {
  /// Topology used for every sub-adder (and the exact adder).
  AdderTopology subAdderTopology = AdderTopology::Sklansky;
};

/// Builds the gate-level netlist of `cfg` (ISA or exact).
[[nodiscard]] netlist::Netlist buildIsaNetlist(
    const core::IsaConfig& cfg, const IsaBuildOptions& options = {});

/// Packs (a, b, cin) into the primary-input vector of a generated netlist.
[[nodiscard]] std::vector<std::uint8_t> packOperands(std::uint64_t a,
                                                     std::uint64_t b,
                                                     bool carryIn, int width);

/// Allocation-free packOperands for per-cycle hot loops: `in` is resized
/// once and reused across calls.
void packOperandsInto(std::uint64_t a, std::uint64_t b, bool carryIn,
                      int width, std::vector<std::uint8_t>& in);

/// Extracts the width-bit sum from the primary-output vector.
[[nodiscard]] std::uint64_t unpackSum(std::span<const std::uint8_t> outputs,
                                      int width);

/// Extracts the carry-out from the primary-output vector.
[[nodiscard]] bool unpackCarryOut(std::span<const std::uint8_t> outputs,
                                  int width);

}  // namespace oisa::circuits

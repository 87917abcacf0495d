// oisa_netlist: minimal ISCAS-85 `.bench`-format importer.
//
// The `.bench` netlist format of the classic ISCAS-85/89 benchmark
// suites (c17, c432, ... — the circuits every published fault simulator
// is measured on):
//
//   # comment
//   INPUT(G1)
//   OUTPUT(G22)
//   G10 = NAND(G1, G3)
//   G22 = NOT(G10)
//
// Supported cells: AND, OR, XOR, NAND, NOR, XNOR, NOT, BUF/BUFF, at any
// arity >= 1 (>= 1 input; wider-than-3 gates are decomposed into chains
// of the repo's 2/3-input primitives, inverting kinds as reduce +
// invert). Statements may appear in any order; definitions are resolved
// by name. Sequential elements (DFF) and unknown cells are rejected with
// a diagnostic — the fault engine is combinational.
#pragma once

#include <string>
#include <string_view>

#include "core/status.h"
#include "netlist/netlist.h"

namespace oisa::netlist {

/// Hard ceiling on a single cell's fan-in. Real benchmark circuits top
/// out around a few dozen; anything wider is a corrupt or adversarial
/// file, and rejecting it up front keeps the arity-reduction loop from
/// materializing millions of gates.
inline constexpr std::size_t kMaxGateArity = 4096;

/// Parses a `.bench`-format circuit from an in-memory string (embedded
/// test circuits, generated netlists). Every malformed input — bad
/// syntax, undefined/duplicated signals, unsupported or sequential cells,
/// combinational cycles, absurd gate widths, binary garbage — comes back
/// as StatusCode::InvalidInput with a line-numbered diagnostic; no
/// malformed byte stream crashes or throws past it.
[[nodiscard]] core::StatusOr<Netlist> readBenchString(
    std::string_view text, std::string topName = "bench");

/// Parses a `.bench` file from disk; the top name is the file path. A
/// file that cannot be opened is IoError, malformed text InvalidInput.
[[nodiscard]] core::StatusOr<Netlist> readBenchFile(const std::string& path);

}  // namespace oisa::netlist

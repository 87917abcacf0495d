// oisa_fault: the PPSFP engine factory for the runtime lane-width
// dispatcher (netlist/lane_width.h). runCoverage and the defect scan hold
// AnyPpsfpEngine (fault/ppsfp.h), so the widest variant the CPU supports
// flows through the fault pipelines transparently.
#pragma once

#include <memory>

#include "fault/ppsfp.h"
#include "netlist/compiled_netlist.h"
#include "netlist/lane_width.h"

namespace oisa::fault {

/// Builds the engine variant for `sel` (default:
/// netlist::defaultLaneSelection()). Throws std::invalid_argument for a
/// variant this build/CPU cannot run.
[[nodiscard]] std::unique_ptr<AnyPpsfpEngine> makePpsfpEngine(
    std::shared_ptr<const netlist::CompiledNetlist> compiled);
[[nodiscard]] std::unique_ptr<AnyPpsfpEngine> makePpsfpEngine(
    std::shared_ptr<const netlist::CompiledNetlist> compiled,
    netlist::LaneSelection sel);

namespace detail {

// Per-arch factories, defined in the -mavx2 / -mavx512f dispatch TUs.
[[nodiscard]] std::unique_ptr<AnyPpsfpEngine> makePpsfpEngineAvx2(
    std::shared_ptr<const netlist::CompiledNetlist> compiled);
[[nodiscard]] std::unique_ptr<AnyPpsfpEngine> makePpsfpEngineAvx512(
    std::shared_ptr<const netlist::CompiledNetlist> compiled);

}  // namespace detail

}  // namespace oisa::fault

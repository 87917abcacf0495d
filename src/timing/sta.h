// oisa_timing: static timing analysis.
//
// Computes per-net arrival times (forward pass), per-gate required times and
// slacks against a clock period (backward pass), and extracts the critical
// path. All inputs arrive at t = 0 and all primary outputs are latched at
// the clock period, matching the paper's single-cycle adder setting.
#pragma once

#include <vector>

#include "netlist/netlist.h"
#include "timing/delay_annotation.h"

namespace oisa::timing {

/// One hop of a critical path, for reports.
struct PathStep {
  netlist::GateId gate;
  double arrivalNs = 0.0;
};

/// Result of a full STA run.
struct StaResult {
  std::vector<double> arrival;        ///< per net (indexed by NetId::value)
  std::vector<double> gateSlack;      ///< per gate, vs the given period
  double criticalDelayNs = 0.0;       ///< worst primary-output arrival
  double periodNs = 0.0;              ///< constraint used for slacks
  std::vector<PathStep> criticalPath; ///< PI-to-PO gate chain, in order

  [[nodiscard]] double worstSlackNs() const noexcept {
    return periodNs - criticalDelayNs;
  }
};

/// Runs STA with the given annotation against `periodNs`.
[[nodiscard]] StaResult analyze(const netlist::Netlist& nl,
                                const DelayAnnotation& delays,
                                double periodNs);

/// Convenience: critical delay only (period-independent).
[[nodiscard]] double criticalDelayNs(const netlist::Netlist& nl,
                                     const DelayAnnotation& delays);

/// Total cell area of the netlist in NAND2-equivalents.
[[nodiscard]] double totalArea(const netlist::Netlist& nl,
                               const CellLibrary& lib);

}  // namespace oisa::timing

// oisa_circuits: constraint-driven synthesis front-end.
//
// Reproduces the paper's flow "circuits synthesized for 0.3 ns": for each
// design, pick the cheapest sub-adder topology whose STA meets the target
// period, optionally followed by the power-recovery slack-relaxation pass
// (which consumes leftover slack the way a synthesis tool trades it for
// power). The result bundles everything needed downstream: netlist, delay
// annotation, and sign-off numbers.
#pragma once

#include <vector>

#include "circuits/isa_netlist.h"
#include "core/isa_config.h"
#include "netlist/netlist.h"
#include "timing/cell_library.h"
#include "timing/delay_annotation.h"

namespace oisa::circuits {

/// Synthesis controls.
struct SynthesisOptions {
  double targetPeriodNs = 0.3;  ///< the paper's 3.3 GHz constraint
  bool relaxSlack = false;      ///< run the power-recovery sizing pass
  double maxSlowdown = 1.05;    ///< the pass's per-gate delay growth cap
};

/// A signed-off design: netlist + frozen delays + report numbers.
struct SynthesizedDesign {
  core::IsaConfig config;
  netlist::Netlist netlist;
  timing::DelayAnnotation delays;
  AdderTopology topology = AdderTopology::Sklansky;
  double criticalDelayNs = 0.0;
  double areaNand2 = 0.0;
  bool meetsTiming = false;
};

/// Synthesizes one design against the library and options.
[[nodiscard]] SynthesizedDesign synthesize(const core::IsaConfig& cfg,
                                           const timing::CellLibrary& lib,
                                           const SynthesisOptions& options = {});

/// Synthesizes all paper designs (convenience for benches/tests).
[[nodiscard]] std::vector<SynthesizedDesign> synthesizePaperDesigns(
    const timing::CellLibrary& lib, const SynthesisOptions& options = {});

}  // namespace oisa::circuits

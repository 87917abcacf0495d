// oisa_timing: power-recovery (slack-relaxation) sizing pass.
//
// Synthesis tools downsize or raise the threshold voltage of gates on
// non-critical paths until almost no positive slack remains, trading the
// slack for power. The visible timing effect — which is what matters for
// overclocking studies — is that path delays compress towards the clock
// constraint. This pass reproduces that effect on the delay annotation: a
// damped zero-slack algorithm distributes each gate's slack over the gates
// of its path, bounded by a per-instance slowdown cap.
#pragma once

#include "netlist/netlist.h"
#include "timing/delay_annotation.h"

namespace oisa::timing {

/// Statistics returned by the pass, for reports and tests.
struct RelaxationReport {
  double criticalBeforeNs = 0.0;
  double criticalAfterNs = 0.0;
  double meanSlowdown = 1.0;  ///< average per-gate delay growth factor
};

/// Consumes positive slack in `delays` (in place) against the sign-off
/// constraint `periodNs`, growing no gate's delay past `maxSlowdown` times
/// its original (the sizing range). Never pushes the critical delay above
/// `periodNs` if it was below it before; gates already critical are left
/// untouched.
RelaxationReport relaxSlack(const netlist::Netlist& nl,
                            DelayAnnotation& delays, double periodNs,
                            double maxSlowdown);

}  // namespace oisa::timing

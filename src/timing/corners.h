// oisa_timing: PVT corner modeling and guardband analysis.
//
// The paper's motivation: designers "apply ultra-conservative guardbands"
// derived from multi-corner worst-case analysis. This module derives
// process corners from the nominal library by delay derating, and computes
// the guardband a worst-case methodology would impose on a design — the
// margin that overclocking with timing-error prediction claws back.
#pragma once

#include "netlist/netlist.h"
#include "timing/cell_library.h"
#include "timing/delay_annotation.h"

namespace oisa::timing {

/// Standard process corners (voltage/temperature folded into the factor).
enum class Corner {
  FastFast,        ///< best case: fast process, high V, low T
  TypicalTypical,  ///< nominal
  SlowSlow,        ///< worst case: slow process, low V, high T
};

/// Delay derating factor of a corner relative to typical.
[[nodiscard]] double cornerDeratingFactor(Corner corner) noexcept;

/// Returns `nominal` with every cell delay scaled by the corner factor
/// (areas unchanged).
[[nodiscard]] CellLibrary libraryAtCorner(const CellLibrary& nominal,
                                          Corner corner);

/// Worst-case-design guardband of one netlist.
struct GuardbandReport {
  double typicalDelayNs = 0.0;  ///< critical delay at TT
  double worstDelayNs = 0.0;    ///< critical delay at SS
  double bestDelayNs = 0.0;     ///< critical delay at FF
  /// Margin a worst-case methodology adds on top of typical silicon.
  [[nodiscard]] double guardbandNs() const noexcept {
    return worstDelayNs - typicalDelayNs;
  }
  /// Guardband as a fraction of the worst-case period — the clock-period
  /// reduction available to a typical-silicon part under overclocking.
  [[nodiscard]] double recoverableFraction() const noexcept {
    return worstDelayNs > 0.0 ? guardbandNs() / worstDelayNs : 0.0;
  }
};

/// Runs STA at FF/TT/SS and reports the guardband.
[[nodiscard]] GuardbandReport analyzeGuardband(const netlist::Netlist& nl,
                                               const CellLibrary& nominal);

}  // namespace oisa::timing

#include "timing/corners.h"

#include "timing/sta.h"

namespace oisa::timing {

double cornerDeratingFactor(Corner corner) noexcept {
  // Representative 65 nm spread: ~ -15% best case, +25% worst case.
  switch (corner) {
    case Corner::FastFast: return 0.85;
    case Corner::TypicalTypical: return 1.0;
    case Corner::SlowSlow: return 1.25;
  }
  return 1.0;
}

CellLibrary libraryAtCorner(const CellLibrary& nominal, Corner corner) {
  const double factor = cornerDeratingFactor(corner);
  CellLibrary scaled = nominal;
  for (const netlist::GateKind kind : netlist::allGateKinds()) {
    CellTiming& cell = scaled.cell(kind);
    cell.intrinsicNs *= factor;
    cell.perFanoutNs *= factor;
  }
  return scaled;
}

GuardbandReport analyzeGuardband(const netlist::Netlist& nl,
                                 const CellLibrary& nominal) {
  GuardbandReport report;
  const auto delayAt = [&](Corner corner) {
    const CellLibrary lib = libraryAtCorner(nominal, corner);
    const DelayAnnotation delays(nl, lib);
    return criticalDelayNs(nl, delays);
  };
  report.bestDelayNs = delayAt(Corner::FastFast);
  report.typicalDelayNs = delayAt(Corner::TypicalTypical);
  report.worstDelayNs = delayAt(Corner::SlowSlow);
  return report;
}

}  // namespace oisa::timing

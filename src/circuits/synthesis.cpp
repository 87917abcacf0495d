#include "circuits/synthesis.h"

#include <optional>

#include "timing/relaxation.h"
#include "timing/sta.h"

namespace oisa::circuits {

namespace {

SynthesizedDesign elaborate(const core::IsaConfig& cfg,
                            const timing::CellLibrary& lib,
                            AdderTopology topology) {
  IsaBuildOptions build;
  build.subAdderTopology = topology;
  netlist::Netlist nl = buildIsaNetlist(cfg, build);
  timing::DelayAnnotation delays(nl, lib);
  const double critical = timing::criticalDelayNs(nl, delays);
  const double area = timing::totalArea(nl, lib);
  return SynthesizedDesign{cfg,      std::move(nl), std::move(delays),
                           topology, critical,      area};
}

}  // namespace

SynthesizedDesign synthesize(const core::IsaConfig& cfg,
                             const timing::CellLibrary& lib,
                             const SynthesisOptions& options) {
  SynthesizedDesign best = [&] {
    // Constraint-driven selection, a synthesis tool's area-first policy:
    // the cheapest topology meeting the target (the paper's designs hug
    // the 0.3 ns constraint); failing that, the fastest available.
    std::optional<SynthesizedDesign> fastest;
    for (AdderTopology topo : selectionTopologies()) {
      SynthesizedDesign candidate = elaborate(cfg, lib, topo);
      if (candidate.criticalDelayNs <= options.targetPeriodNs) {
        return candidate;
      }
      if (!fastest || candidate.criticalDelayNs < fastest->criticalDelayNs) {
        fastest = std::move(candidate);
      }
    }
    return std::move(*fastest);
  }();

  if (options.relaxSlack) {
    (void)timing::relaxSlack(best.netlist, best.delays, options.targetPeriodNs,
                             options.maxSlowdown);
    best.criticalDelayNs =
        timing::criticalDelayNs(best.netlist, best.delays);
  }
  best.meetsTiming = best.criticalDelayNs <= options.targetPeriodNs;
  return best;
}

std::vector<SynthesizedDesign> synthesizePaperDesigns(
    const timing::CellLibrary& lib, const SynthesisOptions& options) {
  std::vector<SynthesizedDesign> designs;
  designs.reserve(core::paperDesigns().size());
  for (const core::IsaConfig& cfg : core::paperDesigns()) {
    designs.push_back(synthesize(cfg, lib, options));
  }
  return designs;
}

}  // namespace oisa::circuits

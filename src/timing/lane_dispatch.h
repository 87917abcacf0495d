// oisa_timing: the lane-sampler factory the benchmark's timed fault
// rebuild (perfbench/campaign.cpp) calls. The lane wheel has one width,
// so this only builds a LaneClockedSampler; it goes, together with
// LaneClockedSampler::wordsPerNet(), when that rebuild stops calling it.
#pragma once

#include <memory>
#include <utility>

#include "netlist/compiled_netlist.h"
#include "timing/delay_annotation.h"
#include "timing/lane_sim.h"

namespace oisa::timing {

/// Builds the 64-lane clocked sampler over `compiled`.
[[nodiscard]] inline std::unique_ptr<LaneClockedSampler> makeLaneSampler(
    std::shared_ptr<const netlist::CompiledNetlist> compiled,
    const DelayAnnotation& delays, double periodNs) {
  return std::make_unique<LaneClockedSampler>(std::move(compiled), delays,
                                              periodNs);
}

}  // namespace oisa::timing

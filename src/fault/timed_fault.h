// oisa_fault: timing-aware stuck-at injection.
//
// Bridges the static fault model to the 64-lane timed engine: a stem
// fault becomes a net clamp on the LaneTimedSimulator's wheel
// (forceNet), so the same defect can be studied under overclocked
// sampling — the paper's timing-error mechanism on a *defective* ISA
// rather than a healthy one. Branch faults are pin-level and have no net
// to clamp; the universe's collapsed representatives of fanout-free
// regions are stems, so campaigns restrict the timed phase to stem
// classes (selectTimedFaults).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault_model.h"
#include "timing/lane_sim.h"

namespace oisa::fault {

/// Clamps every lane of `sim` to the stuck value of stem fault `f`.
/// `laneMask` restricts the defect to a subset of lanes (healthy lanes
/// keep simulating the good machine — differential runs in one sweep).
/// Throws std::invalid_argument for branch faults.
void injectStuckAt(timing::LaneTimedSimulator& sim, const Fault& f,
                   std::uint64_t laneMask = ~std::uint64_t{0});

/// Deterministically picks up to `count` stem faults from `candidates`
/// (e.g. detected collapsed classes), spread evenly across the list so a
/// small sample still covers low- and high-significance sites.
[[nodiscard]] std::vector<Fault> selectTimedFaults(
    std::span<const Fault> candidates, std::size_t count);

}  // namespace oisa::fault

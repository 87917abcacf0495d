// oisa_reference: the sequential trace collector (the seed path).
//
// One scalar wheel-engine cycle per stimulus, recording the same fields as
// experiments::TraceCollector. Differential tests and bench/micro_lane_sim
// compare the lane collector against this record for record.
#pragma once

#include <cstdint>

#include "circuits/synthesis.h"
#include "experiments/workload.h"
#include "predict/trace.h"

namespace oisa::experiments {

/// Collects `cycles` records of `workload` through a scalar
/// timing::ClockedSampler; the first stimulus is the settled reset vector
/// (not recorded).
[[nodiscard]] predict::Trace collectTraceScalar(
    const circuits::SynthesizedDesign& design, double periodNs,
    Workload& workload, std::uint64_t cycles);

}  // namespace oisa::experiments

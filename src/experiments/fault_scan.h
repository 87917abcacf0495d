// oisa_experiments: defect-aware error analysis across the paper designs.
//
// The paper studies two deterministic error sources — structural (ISA
// speculation) and timing (overclocking) — and shows they interact
// non-additively. Silicon defects are the missing third source. This scan
// grid-schedules, per paper design:
//
//  1. a stuck-at fault-coverage campaign: the collapsed fault universe of
//     the synthesized netlist simulated against the experiment workload
//     through the PPSFP engine (the selected lane width's 64-512 patterns
//     per sweep, fault dropping, and no simulation of classes the
//     workload's held inputs make undetectable — see fault/coverage.h);
//  2. a timed defect phase: each sampled detected stem-fault class is
//     held at its stuck value by a 64-stream TraceCollector to re-measure
//     the *defective* design under overclocked sampling, yielding the
//     E_joint shift a defect adds on top of the healthy error.
//
// Rows emit like every other experiment (ASCII table + CSV via
// bench/fault_coverage.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuits/synthesis.h"
#include "experiments/runner.h"

namespace oisa::experiments {

/// Controls for the fault scan.
struct FaultScanOptions {
  /// cycles = coverage patterns; seed/workload drive both phases;
  /// threads fan designs out over runCampaignGrid.
  RunOptions run{};
  double cprPercent = 15.0;        ///< overclock point of the timed phase
  std::uint64_t timedCycles = 8192; ///< measured cycles per timed run
  std::size_t timedFaults = 8;      ///< sampled detected stem classes
};

/// One design row.
struct FaultScanRow {
  std::string design;
  // Coverage phase.
  std::uint64_t universeFaults = 0;   ///< full universe (stems + branches)
  std::uint64_t collapsedClasses = 0; ///< after equivalence collapsing
  std::uint64_t detectedClasses = 0;
  double coveragePercent = 0.0;       ///< detected / collapsed * 100
  std::uint64_t patterns = 0;
  // Timed phase.
  double cprPercent = 0.0;
  double periodNs = 0.0;
  double rmsRelJointHealthy = 0.0;  ///< fault-free E_joint RMS (fractional)
  double rmsRelJointFaulty = 0.0;   ///< mean over the sampled defects
  double eJointShift = 0.0;         ///< faulty - healthy
  double worstRelJointFaulty = 0.0; ///< worst sampled defect's E_joint RMS
  std::uint64_t timedFaultsMeasured = 0;
};

/// Runs the scan over every design; one row per design, grid-scheduled
/// like the other experiment sweeps (bit-identical at any thread count).
/// Throws core::StatusError(InvalidInput) before any cell runs when
/// `run.cycles` or `timedCycles` is 0.
[[nodiscard]] std::vector<FaultScanRow> runFaultErrorScan(
    const std::vector<circuits::SynthesizedDesign>& designs,
    const FaultScanOptions& options);

}  // namespace oisa::experiments

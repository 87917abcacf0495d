// oisa_timing: Razor-style shadow-latch error detection (paper refs
// [10]-[12], the Better-Than-Worst-Case alternative to model-based
// prediction).
//
// A main flip-flop samples at the (overclocked) period; a shadow latch
// samples the same nets a safe margin later. A mismatch flags a timing
// error; recovery replays the operation at a cycle penalty. The paper's
// argument — "such techniques incur silicon overhead for online monitoring
// and recovery penalty" — is quantified by the ablation bench built on this
// model.
//
// Idealization: the shadow margin is modeled as dead time appended to each
// cycle (a real Razor overlaps it with the next cycle after min-delay
// fixing); detection semantics are unaffected. Errors slower than
// period + margin escape the shadow too (true Razor behavior).
//
// The sampler runs its one stream in lane 0 of the event wheel
// (lane_sim.h); lanes 1-63 stay at the all-inputs-low reset state.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "timing/lane_sim.h"

namespace oisa::timing {

/// Clocked sampler with a delayed shadow sample and detection statistics.
class RazorSampler {
 public:
  /// `periodNs` — overclocked clock; `shadowMarginNs` — how much later the
  /// shadow latch samples; `recoveryPenaltyCycles` — replay cost per
  /// detection (pipeline flush depth).
  RazorSampler(const netlist::Netlist& nl, const DelayAnnotation& delays,
               double periodNs, double shadowMarginNs,
               double recoveryPenaltyCycles = 1.0);

  void initialize(std::span<const std::uint8_t> inputValues);

  struct StepResult {
    std::vector<std::uint8_t> main;    ///< sampled at the clock edge
    std::vector<std::uint8_t> shadow;  ///< sampled margin later
    bool detected = false;             ///< any main/shadow mismatch
  };

  [[nodiscard]] StepResult step(std::span<const std::uint8_t> inputValues);

  // --- accounting ---------------------------------------------------------
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }
  [[nodiscard]] std::uint64_t detections() const noexcept {
    return detections_;
  }
  [[nodiscard]] double detectionRate() const noexcept {
    return cycles_ ? static_cast<double>(detections_) /
                         static_cast<double>(cycles_)
                   : 0.0;
  }
  /// Mean clock cycles per completed operation including replay penalty.
  [[nodiscard]] double effectiveCyclesPerOp() const noexcept {
    return cycles_ ? 1.0 + recoveryPenaltyCycles_ * detectionRate() : 0.0;
  }
  /// Throughput relative to a safe clock of `safePeriodNs`: frequency gain
  /// discounted by replay cycles.
  [[nodiscard]] double throughputGain(double safePeriodNs) const noexcept {
    return (safePeriodNs / periodNs_) / effectiveCyclesPerOp();
  }

  [[nodiscard]] double periodNs() const noexcept { return periodNs_; }
  [[nodiscard]] double shadowMarginNs() const noexcept {
    return shadowMarginNs_;
  }

 private:
  /// Applies one stream's input values as lane-0 words.
  void applyLane0(std::span<const std::uint8_t> inputValues);
  /// Lane 0's primary-output values.
  [[nodiscard]] std::vector<std::uint8_t> sampleLane0() const;

  LaneTimedSimulator sim_;
  double periodNs_;
  double shadowMarginNs_;
  std::vector<std::uint64_t> words_;  ///< lane-0 input words
  double recoveryPenaltyCycles_;
  std::uint64_t cycles_ = 0;
  std::uint64_t detections_ = 0;
};

}  // namespace oisa::timing

#include "timing/razor.h"

#include <stdexcept>

namespace oisa::timing {

RazorSampler::RazorSampler(const netlist::Netlist& nl,
                           const DelayAnnotation& delays, double periodNs,
                           double shadowMarginNs,
                           double recoveryPenaltyCycles)
    : sim_(nl, delays),
      periodNs_(periodNs),
      shadowMarginNs_(shadowMarginNs),
      recoveryPenaltyCycles_(recoveryPenaltyCycles) {
  if (periodNs <= 0.0 || shadowMarginNs < 0.0 || recoveryPenaltyCycles < 0.0) {
    throw std::invalid_argument("RazorSampler: bad parameters");
  }
}

void RazorSampler::applyLane0(std::span<const std::uint8_t> inputValues) {
  words_.assign(inputValues.begin(), inputValues.end());
  for (auto& w : words_) w = w != 0;
  sim_.applyInputs(words_);
}

std::vector<std::uint8_t> RazorSampler::sampleLane0() const {
  const auto words = sim_.sampleOutputs();
  std::vector<std::uint8_t> values(words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    values[i] = static_cast<std::uint8_t>(words[i] & 1u);
  }
  return values;
}

void RazorSampler::initialize(std::span<const std::uint8_t> inputValues) {
  applyLane0(inputValues);
  (void)sim_.settlePs();
}

RazorSampler::StepResult RazorSampler::step(
    std::span<const std::uint8_t> inputValues) {
  applyLane0(inputValues);
  sim_.advancePs(quantizeSpanPs(periodNs_));
  StepResult result;
  result.main = sampleLane0();
  sim_.advancePs(quantizeSpanPs(shadowMarginNs_));
  result.shadow = sampleLane0();
  result.detected = result.main != result.shadow;
  ++cycles_;
  if (result.detected) ++detections_;
  return result;
}

}  // namespace oisa::timing

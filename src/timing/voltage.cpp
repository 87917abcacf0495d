#include "timing/voltage.h"

#include <cmath>
#include <stdexcept>

namespace oisa::timing {

double voltageDelayFactor(double vdd, const VoltageModel& model) {
  if (vdd <= model.threshold) {
    throw std::invalid_argument(
        "voltageDelayFactor: vdd must exceed the threshold voltage");
  }
  const auto alphaPower = [&](double v) {
    return v / std::pow(v - model.threshold, model.alpha);
  };
  return alphaPower(vdd) / alphaPower(model.nominalVdd);
}

double voltageEnergyFactor(double vdd, const VoltageModel& model) {
  const double ratio = vdd / model.nominalVdd;
  return ratio * ratio;
}

}  // namespace oisa::timing

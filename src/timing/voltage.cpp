#include "timing/voltage.h"

#include <cmath>
#include <stdexcept>

namespace oisa::timing {

namespace {

// Alpha-power-law parameters (65 nm-flavored).
constexpr double kNominalVdd = 1.2;  // library characterization voltage (V)
constexpr double kThreshold = 0.35;  // effective Vth (V)
constexpr double kAlpha = 1.5;       // velocity-saturation exponent

}  // namespace

double voltageDelayFactor(double vdd) {
  if (vdd <= kThreshold) {
    throw std::invalid_argument(
        "voltageDelayFactor: vdd must exceed the threshold voltage");
  }
  const auto alphaPower = [](double v) {
    return v / std::pow(v - kThreshold, kAlpha);
  };
  return alphaPower(vdd) / alphaPower(kNominalVdd);
}

double voltageEnergyFactor(double vdd) {
  const double ratio = vdd / kNominalVdd;
  return ratio * ratio;
}

}  // namespace oisa::timing

// Voltage-scaling model tests.
#include <gtest/gtest.h>

#include <stdexcept>

#include "timing/voltage.h"

namespace {

using oisa::timing::voltageDelayFactor;
using oisa::timing::voltageEnergyFactor;

TEST(VoltageTest, NominalVoltageIsUnityFactor) {
  EXPECT_DOUBLE_EQ(voltageDelayFactor(1.2), 1.0);
  EXPECT_DOUBLE_EQ(voltageEnergyFactor(1.2), 1.0);
}

TEST(VoltageTest, LowerVoltageIsSlowerAndCheaper) {
  double previous = voltageDelayFactor(1.2);
  for (const double vdd : {1.1, 1.0, 0.9, 0.8, 0.7}) {
    const double factor = voltageDelayFactor(vdd);
    EXPECT_GT(factor, previous) << vdd;
    previous = factor;
    EXPECT_LT(voltageEnergyFactor(vdd), 1.0);
  }
  // Approaching threshold: delay explodes.
  EXPECT_GT(voltageDelayFactor(0.40), 5.0);
}

TEST(VoltageTest, RejectsSubThresholdSupply) {
  EXPECT_THROW((void)voltageDelayFactor(0.35), std::invalid_argument);
  EXPECT_THROW((void)voltageDelayFactor(0.1), std::invalid_argument);
}

}  // namespace

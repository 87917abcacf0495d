// Calibration lock: the generic65 cell library and the synthesis flow must
// keep the paper's timing story true — every design signs off at 0.3 ns,
// the exact adder is the most timing-critical, and path delays order the
// designs the way the paper's overclocking results require.
#include <gtest/gtest.h>

#include <map>

#include "circuits/synthesis.h"
#include "timing/sta.h"

namespace {

using oisa::circuits::SynthesisOptions;
using oisa::circuits::synthesize;
using oisa::circuits::synthesizePaperDesigns;
using oisa::timing::CellLibrary;

class CalibrationTest : public ::testing::Test {
 protected:
  static const std::vector<oisa::circuits::SynthesizedDesign>& designs() {
    static const auto all =
        synthesizePaperDesigns(CellLibrary::generic65(), SynthesisOptions{});
    return all;
  }

  static double criticalOf(const std::string& name) {
    for (const auto& d : designs()) {
      if (d.config.name() == name) return d.criticalDelayNs;
    }
    ADD_FAILURE() << "no design " << name;
    return 0.0;
  }
};

TEST_F(CalibrationTest, EveryPaperDesignMeetsTheConstraint) {
  for (const auto& d : designs()) {
    EXPECT_TRUE(d.meetsTiming) << d.config.name();
    EXPECT_LE(d.criticalDelayNs, 0.3) << d.config.name();
    EXPECT_GT(d.criticalDelayNs, 0.05) << d.config.name();
  }
}

TEST_F(CalibrationTest, ExactAdderIsTheMostTimingCritical) {
  const double exact = criticalOf("exact");
  EXPECT_GE(exact, 0.26) << "exact adder should sit just under 0.3 ns";
  for (const auto& d : designs()) {
    if (!d.config.exact) {
      EXPECT_LT(d.criticalDelayNs, exact + 1e-9) << d.config.name();
    }
  }
}

TEST_F(CalibrationTest, EightBitBlocksAreFasterThanSixteen) {
  // The paper's robustness ordering under overclocking requires 8-bit-block
  // ISAs to have more timing headroom than 16-bit-block ones.
  double worst8 = 0.0, best16 = 1.0;
  for (const auto& d : designs()) {
    if (d.config.exact) continue;
    if (d.config.block == 8) {
      worst8 = std::max(worst8, d.criticalDelayNs);
    } else {
      best16 = std::min(best16, d.criticalDelayNs);
    }
  }
  EXPECT_LT(worst8, best16);
}

TEST_F(CalibrationTest, SixteenBitDesignsAreExposedAtDeepOverclock) {
  // At 15% CPR (0.255 ns) the 16-bit-block designs must have paths longer
  // than the clock (they "fall to timing errors" in Fig. 9c), while at 5%
  // CPR (0.285 ns) the 8-bit-block designs must still have headroom.
  for (const auto& d : designs()) {
    if (d.config.exact) continue;
    if (d.config.block == 16) {
      EXPECT_GT(d.criticalDelayNs, 0.255) << d.config.name();
    } else {
      EXPECT_LT(d.criticalDelayNs, 0.285) << d.config.name();
    }
  }
}

TEST_F(CalibrationTest, ExactAdderIsExposedAtFivePercent) {
  EXPECT_GT(criticalOf("exact"), 0.285);
}

TEST_F(CalibrationTest, AreaGrowsWithAccuracyMachinery) {
  // More speculation/compensation hardware costs area: the richest ISA is
  // bigger than the barest one at the same block size.
  std::map<std::string, double> area;
  for (const auto& d : designs()) area[d.config.name()] = d.areaNand2;
  EXPECT_GT(area.at("(8,0,1,6)"), area.at("(8,0,0,0)"));
  EXPECT_GT(area.at("(16,7,0,8)"), area.at("(16,0,0,0)"));
  for (const auto& d : designs()) {
    EXPECT_GT(d.areaNand2, 0.0);
  }
}

TEST_F(CalibrationTest, SynthesisSelectorPrefersCheapTopologies) {
  // With a loose constraint the selector must pick ripple-carry; with the
  // paper constraint a 32-bit exact adder needs a prefix topology.
  const CellLibrary lib = CellLibrary::generic65();
  SynthesisOptions loose;
  loose.targetPeriodNs = 10.0;
  const auto relaxed = synthesize(oisa::core::makeExact(32), lib, loose);
  EXPECT_EQ(relaxed.topology, oisa::circuits::AdderTopology::RippleCarry);

  SynthesisOptions paper;
  const auto tight = synthesize(oisa::core::makeExact(32), lib, paper);
  EXPECT_NE(tight.topology, oisa::circuits::AdderTopology::RippleCarry);
  EXPECT_TRUE(tight.meetsTiming);
}

TEST_F(CalibrationTest, RelaxationKeepsSignOff) {
  const CellLibrary lib = CellLibrary::generic65();
  SynthesisOptions options;
  options.relaxSlack = true;
  for (const auto& cfg : oisa::core::paperDesigns()) {
    const auto d = synthesize(cfg, lib, options);
    EXPECT_LE(d.criticalDelayNs, 0.3 + 1e-9) << cfg.name();
  }
}

}  // namespace

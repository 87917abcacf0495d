// End-to-end integration: small-scale versions of the paper's experiments,
// asserting the qualitative shape of the published results. Designs are
// synthesized with the power-recovery (slack-relaxation) pass, like the
// paper's commercial-tool circuits.
#include <gtest/gtest.h>

#include "core/error_model.h"
#include "experiments/runner.h"
#include "experiments/trace_collector.h"
#include "predict/bit_predictor.h"

namespace {

using oisa::circuits::SynthesisOptions;
using oisa::circuits::SynthesizedDesign;
using oisa::experiments::RunOptions;
using oisa::timing::CellLibrary;

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::generic65();
  return l;
}

SynthesizedDesign synthRelaxed(const oisa::core::IsaConfig& cfg) {
  SynthesisOptions options;
  options.relaxSlack = true;
  return synthesize(cfg, lib(), options);
}

TEST(IntegrationTest, ExactAdderFallsToTimingErrorsAtFivePercentCpr) {
  // Fig. 9a: at 5% CPR the overclocked exact adder suffers MSB-weighted
  // timing errors that dwarf the joint error of high-accuracy ISAs.
  std::vector<SynthesizedDesign> designs;
  designs.push_back(synthRelaxed(oisa::core::makeIsa(16, 2, 1, 6)));
  designs.push_back(synthRelaxed(oisa::core::makeExact(32)));
  RunOptions options;
  options.cycles = 40000;  // exact-adder failures at 5% CPR are rare events
  const double cprs[] = {5.0};
  const auto rows = runErrorCombination(designs, cprs, options);
  ASSERT_EQ(rows.size(), 2u);
  const auto& isa = rows[0];
  const auto& exact = rows[1];
  EXPECT_EQ(exact.rmsRelStruct, 0.0);
  EXPECT_GT(exact.timingErrorRate, 0.0) << "exact adder must miss 0.285 ns";
  EXPECT_GT(exact.rmsRelJoint, isa.rmsRelJoint)
      << "paper: the overclocked exact adder is far worse than "
         "high-accuracy ISAs at 5% CPR";
}

TEST(IntegrationTest, LowAccuracyIsaIsRobustToMildOverclock) {
  // Fig. 9a: 8-bit-block ISAs have negligible timing error at 5% CPR;
  // their joint error is dominated by the structural contribution.
  const auto design = synthRelaxed(oisa::core::makeIsa(8, 0, 0, 4));
  RunOptions options;
  options.cycles = 6000;
  const double cprs[] = {5.0};
  const auto rows = runErrorCombination({design}, cprs, options);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GT(rows[0].rmsRelStruct, 0.0);
  EXPECT_LT(rows[0].rmsRelTiming, 0.25 * rows[0].rmsRelStruct)
      << "timing contribution must be negligible against structural";
  EXPECT_NEAR(rows[0].rmsRelJoint, rows[0].rmsRelStruct,
              0.3 * rows[0].rmsRelStruct);
}

TEST(IntegrationTest, TimingErrorsGrowWithCpr) {
  // Fig. 9: more clock-period reduction, more timing errors. Error *rates*
  // are statistically stable even at moderate cycle counts (RMS is
  // dominated by rare outliers).
  const auto design = synthRelaxed(oisa::core::makeExact(32));
  RunOptions options;
  options.cycles = 6000;
  const double cprs[] = {5.0, 10.0, 15.0};
  const auto rows = runErrorCombination({design}, cprs, options);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_LT(rows[0].timingErrorRate, rows[1].timingErrorRate);
  EXPECT_LT(rows[1].timingErrorRate, rows[2].timingErrorRate);
}

TEST(IntegrationTest, SpeculativeSplitBeatsExactUnderDeepOverclock) {
  // The paper's headline: the speculative structure splits the critical
  // path, so a compensated ISA under 15% CPR keeps a much smaller joint
  // error than the overclocked exact adder.
  std::vector<SynthesizedDesign> designs;
  designs.push_back(synthRelaxed(oisa::core::makeIsa(16, 2, 1, 6)));
  designs.push_back(synthRelaxed(oisa::core::makeExact(32)));
  RunOptions options;
  options.cycles = 8000;
  const double cprs[] = {15.0};
  const auto rows = runErrorCombination(designs, cprs, options);
  EXPECT_LT(rows[0].rmsRelJoint, rows[1].rmsRelJoint);
  // The exact adder's errors concentrate on high-significance bits: its
  // timing RMS is orders of magnitude above the ISA's.
  EXPECT_LT(rows[0].rmsRelTiming * 10.0, rows[1].rmsRelTiming);
}

TEST(IntegrationTest, PredictorTracksOverclockedIsa) {
  // Figs. 7-8 at small scale: train on an aggressive overclock of a design
  // with real timing errors; the model should stay in the paper's accuracy
  // ballpark (ABPER of order 1e-2 or better) and beat "always correct".
  const auto design = synthRelaxed(oisa::core::makeIsa(16, 2, 0, 4));
  const double period = oisa::experiments::overclockedPeriodNs(0.3, 15.0);

  auto train = oisa::experiments::makeWorkload("uniform", 32, 101);
  auto test = oisa::experiments::makeWorkload("uniform", 32, 202);
  oisa::experiments::TraceCollector collector(design, period);
  const auto trainTrace = collector.collect(*train, 4000);
  const auto testTrace = collector.collect(*test, 2000);

  // There must actually be timing errors to learn.
  std::uint64_t errors = 0;
  for (const auto& rec : testTrace) errors += rec.silver != rec.gold;
  ASSERT_GT(errors, 0u);

  oisa::predict::PredictorParams params;
  params.forest.treeCount = 8;
  oisa::predict::BitLevelPredictor predictor(32, params);
  predictor.fit(trainTrace);
  const auto eval = predictor.evaluate(testTrace);

  oisa::predict::PredictorParams naiveParams;
  naiveParams.model = oisa::predict::ModelKind::Majority;
  oisa::predict::BitLevelPredictor naive(32, naiveParams);
  naive.fit(trainTrace);
  const auto naiveEval = naive.evaluate(testTrace);

  // Paper ballpark at an aggressive overclock, and no collapse relative to
  // the constant-prediction baseline (at very high flip rates the forest
  // may tie with it rather than beat it).
  EXPECT_LT(eval.abper, 0.05);
  EXPECT_LE(eval.abper, naiveEval.abper * 1.3 + 1e-12);
}

TEST(IntegrationTest, BitDistributionShapeMatchesFigure10) {
  // ISA (8,0,0,4) at 15% CPR: structural errors sit left of the path
  // boundaries (balanced bands), timing errors are spread across paths
  // rather than concentrated on the MSBs.
  const auto design = synthRelaxed(oisa::core::makeIsa(8, 0, 0, 4));
  RunOptions options;
  options.cycles = 12000;
  const auto dist = runBitDistribution(design, 15.0, options);

  // Structural: nothing below bit 4 (first path exact; fault contributions
  // land at blockSize - reduction and above).
  for (const int pos : {0, 1, 2, 3}) {
    EXPECT_EQ(dist.structuralRate[static_cast<std::size_t>(pos)], 0.0);
  }
  double structTotal = 0.0;
  for (const double r : dist.structuralRate) structTotal += r;
  EXPECT_GT(structTotal, 0.0);

  // Timing errors exist at 15% CPR for this design and are not confined to
  // the top 8 bits (conventional-adder behavior): some flip below bit 24.
  double timingLow = 0.0, timingTotal = 0.0;
  for (std::size_t pos = 0; pos < dist.timingRate.size(); ++pos) {
    timingTotal += dist.timingRate[pos];
    if (pos < 24) timingLow += dist.timingRate[pos];
  }
  EXPECT_GT(timingTotal, 0.0);
  EXPECT_GT(timingLow, 0.0);
}

TEST(IntegrationTest, JointDecompositionHoldsOnRealTraces) {
  // E_joint == E_struct + E_timing must hold cycle-by-cycle on real
  // gate-level traces, not just algebraically.
  const auto design = synthRelaxed(oisa::core::makeIsa(16, 1, 0, 2));
  auto workload = oisa::experiments::makeWorkload("uniform", 32, 77);
  oisa::experiments::TraceCollector collector(
      design, oisa::experiments::overclockedPeriodNs(0.3, 15.0));
  const auto trace = collector.collect(*workload, 1500);
  for (const auto& rec : trace) {
    const auto s = oisa::core::decomposeErrors(oisa::core::OutputTriple{
        rec.diamondValue(32), rec.goldValue(32), rec.silverValue(32)});
    EXPECT_EQ(s.eJoint, s.eStruct + s.eTiming);
    EXPECT_EQ(rec.goldValue(32),
              static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(rec.diamondValue(32)) +
                  s.eStruct));
  }
}

}  // namespace

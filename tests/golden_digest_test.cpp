// Golden-digest regression tests (the ROADMAP's `.ans.sha` scheme): the
// fig7/fig8 prediction rows, fig9 error-combination rows, fault-coverage
// scan rows, a c17 random-coverage campaign and the scalar wheel's power
// and Razor numbers are serialized to a canonical text form and
// SHA-256-digested against checked-in goldens.
// Every number is printed in hexfloat, so the digest pins the exact bit
// pattern of every double — a data-plane refactor (e.g. widening the
// 64-lane engines to 256/512 SIMD blocks) cannot silently drift an
// output without tripping one of these.
//
// The digests must hold at every forced lane width: CI re-runs this test
// with OISA_FORCE_LANE_WIDTH=64/256/portable/512.
//
// Regenerating after an *intentional* output change: run this test and
// copy the "actual" digest from the failure message (the canonical text
// is printed alongside to diff what moved).
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "circuits/isa_netlist.h"
#include "circuits/synthesis.h"
#include "core/isa_config.h"
#include "experiments/fault_scan.h"
#include "experiments/runner.h"
#include "fault/coverage.h"
#include "fault/fault_universe.h"
#include "fault/ppsfp_dispatch.h"
#include "netlist/bench_io.h"
#include "netlist/compiled_netlist.h"
#include "sha256.h"
#include "timing/cell_library.h"
#include "timing/power.h"
#include "timing/razor.h"

namespace {

using oisa::circuits::SynthesizedDesign;
using oisa::testing::sha256Hex;

// Checked-in goldens, generated from the 64-lane seed engines. The
// prediction case runs every ablation_predictor variant: the three
// non-default ones were recorded with the pointer-forest models, before
// every model kind became a flat forest bank.
constexpr const char* kGoldenPrediction =
    "0af15bf0e7f7fefcdbcb3714cf64742d761fc476baa97f3f3ff59af85eab2bb3";
constexpr const char* kGoldenPredictionDecisionTree =
    "7c02bacc04e1acc5c964a1d9fc5d8c12c9b3c01b76ada654e746e986ac240780";
constexpr const char* kGoldenPredictionMajority =
    "3cc832a74e8563a57970d8d37a0bf53492c001bef214595e195aefeda91f8ecb";
constexpr const char* kGoldenPredictionNoOutputBits =
    "a640b5f41a6c0cc78f048da1d7481456085de4dea8f26924a0b41c0044ac8561";
constexpr const char* kGoldenCombination =
    "e9279bd98efc200916874105bb281dc9c7e7a7a2f65cbb54a3b6c33602befb9b";
constexpr const char* kGoldenFaultScan =
    "537e3eb217f0477eb85d6b9160428a15e4473a55afdf18aa88e33bbb1064044b";
constexpr const char* kGoldenC17Coverage =
    "f33d7c3e03c65a6b2a4b46ea2b9b1b643a47eb3845b26bd1566cb03e2cbce09a";
constexpr const char* kGoldenPowerRazor =
    "a3acaf84fb67d4210094a3e6e3c36d0e5c2167661be133e074d18a35077c34da";

/// Exact, locale-independent double rendering (C99 %a hexfloat).
std::string hexd(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Two small paper-style ISA designs: fast enough for Debug+ASan, deep
/// enough that structural + timing + defect errors are all non-trivial.
std::vector<SynthesizedDesign> goldenDesigns() {
  oisa::circuits::SynthesisOptions options;
  options.relaxSlack = true;
  const auto lib = oisa::timing::CellLibrary::generic65();
  std::vector<SynthesizedDesign> designs;
  designs.push_back(
      oisa::circuits::synthesize(oisa::core::makeIsa(4, 1, 1, 2, 16), lib,
                                 options));
  designs.push_back(
      oisa::circuits::synthesize(oisa::core::makeIsa(4, 2, 1, 2, 16), lib,
                                 options));
  return designs;
}

/// Canonical text of runPredictionEvaluation rows (1200/600 cycles, seed
/// 42, one thread) for one predictor configuration.
std::string predictionText(const std::vector<SynthesizedDesign>& designs,
                           std::span<const double> cprs,
                           const oisa::predict::PredictorParams& predictor) {
  oisa::experiments::PredictionOptions options;
  options.run.seed = 42;
  options.run.threads = 1;
  options.trainCycles = 1200;
  options.testCycles = 600;
  options.predictor = predictor;
  const auto rows =
      oisa::experiments::runPredictionEvaluation(designs, cprs, options);

  std::string text = "design,cpr,period_ns,abper,avpe,train,test\n";
  for (const auto& r : rows) {
    text += r.design + "," + hexd(r.cprPercent) + "," + hexd(r.periodNs) +
            "," + hexd(r.abper) + "," + hexd(r.avpe) + "," +
            std::to_string(r.trainCycles) + "," +
            std::to_string(r.testCycles) + "\n";
  }
  return text;
}

TEST(GoldenDigestTest, PredictionRowsMatchGolden) {
  const double cprs[] = {5.0, 15.0};
  const std::string text = predictionText(goldenDesigns(), cprs, {});
  EXPECT_EQ(sha256Hex(text), kGoldenPrediction) << "canonical text:\n"
                                                << text;

  // The non-default ablation_predictor variants, on its design subset at
  // 15% CPR with default synthesis, where every design has real timing
  // errors for the models to learn.
  using oisa::predict::ModelKind;
  struct Variant {
    const char* label;
    ModelKind model;
    bool outputBits;
    const char* golden;
  };
  const Variant variants[] = {
      {"decision-tree", ModelKind::DecisionTree, true,
       kGoldenPredictionDecisionTree},
      {"majority", ModelKind::Majority, true, kGoldenPredictionMajority},
      {"rf-no-output-bits", ModelKind::RandomForest, false,
       kGoldenPredictionNoOutputBits},
  };
  const auto lib = oisa::timing::CellLibrary::generic65();
  std::vector<SynthesizedDesign> ablationDesigns;
  for (const auto& cfg :
       {oisa::core::makeIsa(8, 0, 0, 4), oisa::core::makeIsa(16, 2, 0, 4),
        oisa::core::makeExact(32)}) {
    ablationDesigns.push_back(oisa::circuits::synthesize(
        cfg, lib, oisa::circuits::SynthesisOptions{}));
  }
  const double ablationCpr[] = {15.0};
  for (const Variant& variant : variants) {
    oisa::predict::PredictorParams params;
    params.model = variant.model;
    params.includeOutputBits = variant.outputBits;
    const std::string rows = predictionText(ablationDesigns, ablationCpr,
                                            params);
    EXPECT_EQ(sha256Hex(rows), variant.golden)
        << variant.label << " canonical text:\n"
        << rows;
  }
}

TEST(GoldenDigestTest, ErrorCombinationRowsMatchGolden) {
  const auto designs = goldenDesigns();
  oisa::experiments::RunOptions options;
  options.cycles = 1200;
  options.seed = 42;
  options.threads = 1;
  const double cprs[] = {5.0, 15.0};
  const auto rows =
      oisa::experiments::runErrorCombination(designs, cprs, options);

  std::string text =
      "design,cpr,period_ns,rms_struct,rms_timing,rms_joint,"
      "mean_abs_joint,struct_rate,timing_rate,cycles\n";
  for (const auto& r : rows) {
    text += r.design + "," + hexd(r.cprPercent) + "," + hexd(r.periodNs) +
            "," + hexd(r.rmsRelStruct) + "," + hexd(r.rmsRelTiming) + "," +
            hexd(r.rmsRelJoint) + "," + hexd(r.meanAbsJointArith) + "," +
            hexd(r.structErrorRate) + "," + hexd(r.timingErrorRate) + "," +
            std::to_string(r.cycles) + "\n";
  }
  EXPECT_EQ(sha256Hex(text), kGoldenCombination) << "canonical text:\n"
                                                 << text;
}

TEST(GoldenDigestTest, FaultScanRowsMatchGolden) {
  const auto designs = goldenDesigns();
  oisa::experiments::FaultScanOptions options;
  options.run.cycles = 512;
  options.run.seed = 3;
  options.run.threads = 1;
  options.cprPercent = 15.0;
  options.timedCycles = 256;
  options.timedFaults = 3;
  const auto rows = oisa::experiments::runFaultErrorScan(designs, options);

  std::string text =
      "design,universe,collapsed,detected,coverage,patterns,cpr,period_ns,"
      "rms_healthy,rms_faulty,shift,worst,timed_faults\n";
  for (const auto& r : rows) {
    text += r.design + "," + std::to_string(r.universeFaults) + "," +
            std::to_string(r.collapsedClasses) + "," +
            std::to_string(r.detectedClasses) + "," +
            hexd(r.coveragePercent) + "," + std::to_string(r.patterns) +
            "," + hexd(r.cprPercent) + "," + hexd(r.periodNs) + "," +
            hexd(r.rmsRelJointHealthy) + "," + hexd(r.rmsRelJointFaulty) +
            "," + hexd(r.eJointShift) + "," + hexd(r.worstRelJointFaulty) +
            "," + std::to_string(r.timedFaultsMeasured) + "\n";
  }
  EXPECT_EQ(sha256Hex(text), kGoldenFaultScan) << "canonical text:\n"
                                               << text;
}

TEST(GoldenDigestTest, C17RandomCoverageMatchesGolden) {
  constexpr const char* kC17 = R"(
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)";
  const auto compiled = oisa::netlist::CompiledNetlist::compile(
      oisa::netlist::readBenchString(kC17, "c17"));
  oisa::fault::FaultUniverse universe(compiled);
  const auto engine = oisa::fault::makePpsfpEngine(compiled);
  oisa::fault::CoverageOptions options;
  options.patterns = 256;
  options.seed = 1;
  const auto result =
      oisa::fault::runRandomCoverage(universe, *engine, options);

  std::string text = std::to_string(result.universeFaults) + "," +
                     std::to_string(result.collapsedClasses) + "," +
                     std::to_string(result.detectedClasses) + "," +
                     std::to_string(result.patternsApplied) + "\n";
  for (std::size_t ci = 0; ci < result.firstDetectedAt.size(); ++ci) {
    text += std::to_string(ci) + ":" +
            std::to_string(static_cast<int>(result.detected[ci])) + ":" +
            std::to_string(result.firstDetectedAt[ci]) + "\n";
  }
  EXPECT_EQ(sha256Hex(text), kGoldenC17Coverage) << "canonical text:\n"
                                                 << text;
}

TEST(GoldenDigestTest, PowerAndRazorMatchGolden) {
  // The scalar wheel's shipped outputs (table3_power, ablation_razor):
  // every PowerReport field, and Razor cycle and detection counts at a
  // mild and a deep overclock.
  const auto power = oisa::timing::PowerLibrary::generic65();
  std::string text =
      "design,cycles,toggles,dynamic_fj,energy_per_op_fj,dynamic_uw,"
      "leakage_uw,total_uw,toggles_per_cycle\n";
  for (const auto& design : goldenDesigns()) {
    const int width = design.config.width;
    std::mt19937_64 rng(2017);
    std::vector<std::vector<std::uint8_t>> stimuli;
    for (int i = 0; i < 300; ++i) {
      stimuli.push_back(
          oisa::circuits::packOperands(rng(), rng(), false, width));
    }
    const auto r = oisa::timing::measurePower(design.netlist, design.delays,
                                              power, 0.3, stimuli);
    text += design.config.name() + "," + std::to_string(r.cycles) + "," +
            std::to_string(r.toggles) + "," + hexd(r.dynamicEnergyFj) + "," +
            hexd(r.energyPerOpFj) + "," + hexd(r.dynamicPowerUw) + "," +
            hexd(r.leakagePowerUw) + "," + hexd(r.totalPowerUw) + "," +
            hexd(r.meanTogglesPerCycle) + "\n";
    for (const double frac : {0.8, 0.5}) {
      const double periodNs = design.criticalDelayNs * frac;
      oisa::timing::RazorSampler razor(design.netlist, design.delays,
                                       periodNs, 0.5 * periodNs);
      razor.initialize(stimuli.front());
      for (std::size_t i = 1; i < stimuli.size(); ++i) {
        (void)razor.step(stimuli[i]);
      }
      text += "razor," + hexd(periodNs) + "," +
              std::to_string(razor.cycles()) + "," +
              std::to_string(razor.detections()) + "\n";
    }
  }
  EXPECT_EQ(sha256Hex(text), kGoldenPowerRazor) << "canonical text:\n"
                                                << text;
}

}  // namespace

// Adaptive overclocking driven by timing::CprGovernor — the closed loop
// the prediction line of work targets (paper refs [4], [13], [15]):
// instead of one conservative clock, an online governor walks a ladder of
// CPR (clock-period-reduction) levels against a residual-error budget,
// scoring each evaluation window with the flat-bank batch-64
// predictFlipsBlock hot path. No Razor-style replay hardware; the model's
// predicted flip rate IS the feedback signal.
//
// For each budget in a sweep this emits one point of the
// guardband-reclaimed vs residual-error curve: mean clock period,
// guardband reclaimed (the energy/throughput proxy — dynamic power tracks
// f = 1/T), over-budget window fraction, governor step counts, the
// residual joint-RMS error actually incurred, and the controller's own
// overhead in ns per record (it must be negligible next to the cycle it
// governs).
//
// Run: ./adaptive_overclocking [--block=16] [--spec=2] [--corr=0] [--red=4]
//        [--train-cycles=N] [--eval-cycles=N] [--threshold-bit=8]
//        [--window=64] [--hold=4] [--budgets=0.001,0.01,0.05,0.2]
#include <chrono>
#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "core/error_model.h"
#include "experiments/cli.h"
#include "experiments/report.h"
#include "experiments/trace_collector.h"
#include "predict/bit_predictor.h"
#include "timing/cpr_governor.h"

namespace {

/// `--budgets`: comma-separated whole finite numbers, each read like a
/// --key=number flag; any other item, the empty one before, between or
/// after commas included, is InvalidInput naming the flag.
std::vector<double> parseBudgets(const std::string& csv) {
  std::vector<double> budgets;
  for (std::size_t begin = 0;;) {
    const std::size_t end = csv.find(',', begin);
    budgets.push_back(oisa::experiments::parseFiniteDouble(
        "budgets", csv.substr(begin, end - begin)));
    if (end == std::string::npos) return budgets;
    begin = end + 1;
  }
}

int run(int argc, char** argv) {
  using namespace oisa;
  using Clock = std::chrono::steady_clock;
  const experiments::ArgParser args(argc, argv);
  const core::IsaConfig cfg = core::makeIsa(
      args.getBounded<int>("block", 16), args.getBounded<int>("spec", 2),
      args.getBounded<int>("corr", 0), args.getBounded<int>("red", 4));
  const std::uint64_t trainCycles = args.getU64("train-cycles", 8000);
  const std::uint64_t evalCycles = args.getU64("eval-cycles", 4000);
  // Predicted flips strictly below this bit are accepted as "harmless";
  // 63 bounds it to a valid shift of a 64-bit mask.
  const int thresholdBit = args.getBounded<int>("threshold-bit", 8, 0, 63);
  const std::size_t window = args.getBounded<std::size_t>("window", 64, 1);
  const int hold = args.getBounded<int>("hold", 4, 1);
  const std::vector<double> budgets =
      parseBudgets(args.getString("budgets", "0.001,0.01,0.05,0.2"));
  args.rejectUnread();
  constexpr double kSignOffNs = 0.3;

  circuits::SynthesisOptions synth;
  synth.relaxSlack = true;
  const auto design = circuits::synthesize(
      cfg, timing::CellLibrary::generic65(), synth);
  // Governor ladder: sign-off clock plus the paper's CPR sweep, shallow
  // to deep. Ladder index L runs at signOff * (1 - cpr/100).
  const std::vector<double> ladder = {0.0, 5.0, 10.0, 15.0};

  std::cout << "== CprGovernor closed loop on " << cfg.name()
            << " (critical " << design.criticalDelayNs << " ns, sign-off "
            << kSignOffNs << " ns) ==\n\n";

  // One predictor per overclocked ladder level (level 0 = sign-off needs
  // none: no timing errors to predict), and its evaluation trace: every
  // ladder level runs the same inputs in lock-step (hardware would switch
  // a clock mux; here we read the corresponding trace).
  std::vector<predict::BitLevelPredictor> predictors;
  std::vector<predict::Trace> traces;
  for (std::size_t l = 1; l < ladder.size(); ++l) {
    experiments::TraceCollector collector(
        design, experiments::overclockedPeriodNs(kSignOffNs, ladder[l]));
    auto trainWorkload = experiments::makeWorkload(
        "uniform", 32, 100 + static_cast<std::uint64_t>(ladder[l]));
    predict::BitLevelPredictor predictor(32);
    predictor.fit(collector.collect(*trainWorkload, trainCycles));
    predictors.push_back(std::move(predictor));
    std::cout << "trained model @ " << ladder[l] << "% CPR\n";
    auto evalWorkload = experiments::makeWorkload("uniform", 32, 999);
    traces.push_back(collector.collect(*evalWorkload, evalCycles));
  }
  const std::size_t pairs = traces[0].size() - 1;
  const std::uint64_t harmlessMask = ~((std::uint64_t{1} << thresholdBit) - 1);

  // Static baselines for the curve's endpoints.
  core::ErrorCombination conservative, staticDeep;
  for (std::size_t t = 1; t < traces.back().size(); ++t) {
    const auto& rec = traces.back()[t];
    conservative.add(core::OutputTriple{rec.diamondValue(32),
                                        rec.goldValue(32), rec.goldValue(32)});
    staticDeep.add(core::OutputTriple{rec.diamondValue(32), rec.goldValue(32),
                                      rec.silverValue(32)});
  }

  experiments::Table table({"budget[flips/rec]", "mean period[ns]",
                            "guardband[%]", "speedup", "over-budget[%]",
                            "steps up/down", "joint-rms[%]", "ctrl[ns/rec]"});
  auto addRow = [&](const std::string& label, double period, double guardband,
                    double overBudget, const std::string& steps,
                    const core::ErrorCombination& combo, double ctrlNs) {
    table.addRow({label, experiments::formatFixed(period, 4),
                  experiments::formatFixed(guardband, 1),
                  experiments::formatFixed(kSignOffNs / period, 3),
                  experiments::formatFixed(overBudget, 1), steps,
                  experiments::formatSci(experiments::displayFloor(
                      combo.relJoint().rms() * 100.0), 2),
                  ctrlNs >= 0 ? experiments::formatFixed(ctrlNs, 0) : "-"});
  };
  addRow("static sign-off", kSignOffNs, 0.0, 0.0, "-/-", conservative, -1.0);
  addRow("static 15% CPR",
         experiments::overclockedPeriodNs(kSignOffNs, ladder.back()),
         ladder.back(), 0.0, "-/-", staticDeep, -1.0);

  std::vector<predict::PredictedFlips> flips(window);
  for (const double budget : budgets) {
    timing::CprGovernorConfig gcfg;
    gcfg.cprLevels = ladder;
    gcfg.signOffPeriodNs = kSignOffNs;
    gcfg.targetFlipRate = budget;
    gcfg.holdWindows = hold;
    timing::CprGovernor governor(gcfg);

    core::ErrorCombination residual;
    double ctrlSec = 0.0;
    for (std::size_t base = 0; base < pairs; base += window) {
      const std::size_t n = std::min(window, pairs - base);
      const std::size_t level = governor.level();

      // Score the window with the batch hot path at the level in force,
      // then let the governor pick the next window's clock. Only the
      // prediction + control-law cost is the controller's overhead.
      const auto ctrlStart = Clock::now();
      double rate = 0.0;
      if (level > 0) {
        const std::span<const predict::TraceRecord> recs(traces[level - 1]);
        predictors[level - 1].predictFlipsBlock(
            recs.subspan(base, n + 1), std::span(flips).first(n));
        std::size_t harmful = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if ((flips[i].sumFlips & harmlessMask) != 0 || flips[i].coutFlip) {
            ++harmful;
          }
        }
        rate = static_cast<double>(harmful) / static_cast<double>(n);
      }
      governor.observe(rate);
      ctrlSec += std::chrono::duration<double>(Clock::now() - ctrlStart)
                     .count();

      // Residual errors actually incurred at the level that was in force
      // (sign-off level = golden outputs).
      for (std::size_t i = 0; i < n; ++i) {
        const auto& rec =
            level > 0 ? traces[level - 1][base + i + 1] : traces[0][base + i + 1];
        const std::uint64_t silver =
            level > 0 ? rec.silverValue(32) : rec.goldValue(32);
        residual.add(core::OutputTriple{rec.diamondValue(32),
                                        rec.goldValue(32), silver});
      }
    }

    const auto& st = governor.stats();
    addRow(experiments::formatSci(budget, 1), st.meanPeriodNs(),
           governor.guardbandReclaimedPercent(),
           100.0 * static_cast<double>(st.overBudgetWindows) /
               static_cast<double>(st.windows),
           std::to_string(st.stepUps) + "/" + std::to_string(st.stepDowns),
           residual,
           ctrlSec / static_cast<double>(pairs) * 1e9);
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nEach budget row is one point of the guardband-vs-residual-"
               "error curve: loosening the flip budget lets the governor "
               "sit deeper in the CPR ladder (more guardband reclaimed, "
               "dynamic power tracks the shorter period) at the cost of "
               "residual timing-error RMS; the instant-retreat / patient-"
               "advance hysteresis keeps over-budget windows rare.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::experiments::runGuarded([&] { return run(argc, argv); });
}

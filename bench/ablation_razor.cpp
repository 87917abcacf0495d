// Ablation D: Razor-style detect-and-replay vs prediction-guided
// approximate operation under overclocking (paper Sec. III: BTWC recovery
// "incurs silicon overhead ... and recovery penalty"). For each design and
// CPR this reports the Razor detection rate, the throughput after replay
// penalties, and the joint error an approximate (no-recovery) operation
// would accept instead.
//
// Usage: ablation_razor [--cycles=N] [--penalty=5] [--margin=0.06]
//                       [--seed=S] [--csv=path]
#include <random>

#include "experiments/runner.h"
#include "experiments/trace_collector.h"
#include "timing/razor.h"

#include "bench_common.h"

namespace {

int run(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);
  const std::uint64_t cycles = args.getU64("cycles", 3000);
  const double penalty = args.getDouble("penalty", 5.0);
  const double margin = args.getDouble("margin", 0.06);
  const std::uint64_t seed = args.getU64("seed", 42);
  const std::string csv = args.getString("csv", "");
  const auto invalid = [&](const std::string& key) {
    return core::StatusError(core::Status::invalidInput(
        "--" + key + ": expected a value >= 0, got '" +
        args.getString(key, "") + "'"));
  };
  // RazorSampler has no negative shadow margin or replay penalty.
  if (margin < 0.0) throw invalid("margin");
  if (penalty < 0.0) throw invalid("penalty");
  args.rejectUnread();

  const auto lib = timing::CellLibrary::generic65();
  circuits::SynthesisOptions synth;
  synth.relaxSlack = true;

  const std::vector<core::IsaConfig> subset = {
      core::makeIsa(8, 0, 0, 4), core::makeIsa(16, 2, 1, 6),
      core::makeExact(32)};

  std::cout << "== Ablation: Razor detect-and-replay vs approximate "
               "operation ==\n(penalty "
            << penalty << " cycles per replay, shadow margin " << margin
            << " ns)\n\n";
  experiments::Table table({"design", "cpr[%]", "razor-detect-rate",
                            "razor-throughput-x", "approx-joint-rms[%]",
                            "approx-throughput-x"});

  for (const auto& cfg : subset) {
    const auto design = circuits::synthesize(cfg, lib, synth);
    for (const double cpr : bench::paperCprs()) {
      const double period = experiments::overclockedPeriodNs(0.3, cpr);

      // Razor arm: shadow latch + replay.
      timing::RazorSampler razor(design.netlist, design.delays, period,
                                 margin, penalty);
      std::mt19937_64 rng(seed);
      const auto draw = [&] {
        const std::uint64_t b = rng();  // b first: the pinned stimulus order
        const std::uint64_t a = rng();
        return circuits::packOperands(a, b, false, 32);
      };
      razor.initialize(draw());
      for (std::uint64_t i = 0; i < cycles; ++i) (void)razor.step(draw());

      // Approximate arm: run open-loop and measure the joint error.
      experiments::RunOptions options;
      options.cycles = cycles;
      options.seed = seed;
      const double one[] = {cpr};
      const auto rows = runErrorCombination({design}, one, options);

      table.addRow(
          {cfg.name(), experiments::formatFixed(cpr, 0),
           experiments::formatSci(razor.detectionRate(), 2),
           experiments::formatFixed(razor.throughputGain(0.3), 3),
           experiments::formatSci(experiments::displayFloor(
               rows.front().rmsRelJoint * 100.0), 2),
           experiments::formatFixed(0.3 / period, 3)});
    }
  }
  bench::emit(table, csv);
  std::cout << "\nRazor trades replay cycles for exactness; the "
               "prediction/approximation route keeps the full frequency "
               "gain and accepts the joint error instead.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::experiments::runGuarded([&] { return run(argc, argv); });
}

// Ablation C: what each COMP mechanism buys. Sweeps correction and
// reduction sizes at fixed block/spec and reports structural relative-error
// RMS and error rate (behavioral model only: fast, paper-scale samples)
// of full output values (sum plus carry-out), relative to the exact sum.
//
// Usage: ablation_compensation [--samples=N] [--block=8] [--spec=0]
//                              [--seed=S] [--csv=path]
#include "core/analysis.h"

#include "bench_common.h"

namespace {

int run(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);
  const std::uint64_t samples =
      args.getBounded<std::uint64_t>("samples", 2000000, 1);
  const int block = args.getBounded<int>("block", 8);
  const int spec = args.getBounded<int>("spec", 0);
  const std::uint64_t seed = args.getU64("seed", 42);
  const std::string csv = args.getString("csv", "");
  args.rejectUnread();

  std::cout << "== Ablation: compensation mechanisms (block=" << block
            << ", spec=" << spec << ", " << samples << " samples) ==\n\n";
  experiments::Table table({"design", "correction", "reduction",
                            "rms-rel-err[%]", "err-rate", "worst-rel-err"});

  for (const int corr : {0, 1, 2}) {
    for (const int red : {0, 2, 4, 6}) {
      const auto cfg = core::makeIsa(block, spec, corr, red);
      const core::ErrorCombination errors =
          core::sampleStructuralErrors(cfg, samples, seed);
      const core::ErrorStats& rel = errors.relStruct();
      table.addRow({cfg.name(), std::to_string(corr), std::to_string(red),
                    experiments::formatSci(
                        experiments::displayFloor(rel.rms() * 100.0), 3),
                    experiments::formatSci(errors.arithStruct().errorRate(),
                                           3),
                    experiments::formatSci(rel.maxAbs(), 3)});
    }
  }
  bench::emit(table, csv);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::experiments::runGuarded([&] { return run(argc, argv); });
}

// Fig. 10: bit-level-equivalent internal error distribution of ISA
// (8,0,0,4) under 15% CPR — structural fault contributions translated to
// equivalent bit positions vs bitwise timing-error rates, with an ASCII
// bar rendering of the two series.
//
// Usage: fig10_bit_distribution [--cycles=N] [--block=8] [--spec=0]
//          [--corr=0] [--red=4] [--cpr=15] [--seed=S] [--threads=N]
//          [--csv=path] [--trace-out=f] [--metrics-out=f]
#include <algorithm>

#include "experiments/runner.h"

#include "bench_common.h"

namespace {

int run(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);
  const auto obsCtx = bench::beginObs(args);

  const auto cfg = core::makeIsa(static_cast<int>(args.getU64("block", 8)),
                                 static_cast<int>(args.getU64("spec", 0)),
                                 static_cast<int>(args.getU64("corr", 0)),
                                 static_cast<int>(args.getU64("red", 4)));
  const double cpr = args.getDouble("cpr", 15.0);
  const auto design = circuits::synthesize(
      cfg, timing::CellLibrary::generic65(), circuits::SynthesisOptions{});

  experiments::RunOptions options;
  options.cycles = args.getU64("cycles", 20000);
  options.seed = args.getU64("seed", 42);
  options.threads = bench::threadsOption(args);
  const auto dist = runBitDistribution(design, cpr, options);

  std::cout << "== Fig. 10: bit-level-equivalent error distribution in ISA "
            << cfg.name() << " under " << cpr << "% CPR ==\n\n";

  double maxRate = 1e-12;
  for (std::size_t i = 0; i < dist.structuralRate.size(); ++i) {
    maxRate = std::max({maxRate, dist.structuralRate[i], dist.timingRate[i]});
  }
  experiments::Table table(
      {"bit", "structural", "timing", "structural|timing bars"});
  for (std::size_t i = 0; i < dist.structuralRate.size(); ++i) {
    const int sBar =
        static_cast<int>(dist.structuralRate[i] / maxRate * 30.0 + 0.5);
    const int tBar =
        static_cast<int>(dist.timingRate[i] / maxRate * 30.0 + 0.5);
    table.addRow({std::to_string(i),
                  experiments::formatSci(dist.structuralRate[i], 2),
                  experiments::formatSci(dist.timingRate[i], 2),
                  std::string(static_cast<std::size_t>(sBar), '#') + "|" +
                      std::string(static_cast<std::size_t>(tBar), '*')});
  }
  bench::emit(table, args);
  bench::writeObsArtifacts(obsCtx, bench::ShardContext{});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::bench::runGuarded([&] { return run(argc, argv); });
}

// Ablation C: what each COMP mechanism buys. Sweeps correction and
// reduction sizes at fixed block/spec and reports structural relative-error
// RMS and error rate (behavioral model only: fast, paper-scale samples).
//
// Usage: ablation_compensation [--samples=N] [--block=8] [--spec=0]
//                              [--seed=S] [--csv=path]
#include <random>

#include "core/error_stats.h"
#include "core/isa_adder.h"

#include "bench_common.h"

namespace {

int run(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);
  const std::uint64_t samples = args.getU64("samples", 2000000);
  const int block = static_cast<int>(args.getU64("block", 8));
  const int spec = static_cast<int>(args.getU64("spec", 0));
  const std::uint64_t seed = args.getU64("seed", 42);

  std::cout << "== Ablation: compensation mechanisms (block=" << block
            << ", spec=" << spec << ", " << samples << " samples) ==\n\n";
  experiments::Table table({"design", "correction", "reduction",
                            "rms-rel-err[%]", "err-rate", "worst-rel-err"});

  for (const int corr : {0, 1, 2}) {
    for (const int red : {0, 2, 4, 6}) {
      const auto cfg = core::makeIsa(block, spec, corr, red);
      const core::IsaAdder isa(cfg);
      core::ErrorStats rel;
      core::ErrorStats arith;
      std::mt19937_64 rng(seed);
      for (std::uint64_t i = 0; i < samples; ++i) {
        const std::uint64_t a = rng() & 0xffffffffull;
        const std::uint64_t b = rng() & 0xffffffffull;
        const core::IsaSum gold = isa.add(a, b);
        const core::IsaSum diamond = isa.exactAdd(a, b);
        const auto e = static_cast<double>(
            static_cast<std::int64_t>(gold.sum) -
            static_cast<std::int64_t>(diamond.sum));
        arith.add(e);
        if (diamond.sum != 0) {
          rel.add(e / static_cast<double>(diamond.sum));
        }
      }
      table.addRow({cfg.name(), std::to_string(corr), std::to_string(red),
                    experiments::formatSci(
                        experiments::displayFloor(rel.rms() * 100.0), 3),
                    experiments::formatSci(arith.errorRate(), 3),
                    experiments::formatSci(rel.maxAbs(), 3)});
    }
  }
  bench::emit(table, args);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::bench::runGuarded([&] { return run(argc, argv); });
}

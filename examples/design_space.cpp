// Design-space exploration (the paper's "Design Strategy" section): sweep
// ISA quadruples, characterize structural accuracy (behavioral, fast) and
// circuit cost (STA critical path + area), and print the Pareto frontier of
// accuracy vs delay — how the paper's twelve "best implementations fitting
// 0.3 ns" were chosen from a larger space.
//
// Run: ./design_space [--samples=N] [--target=0.3]
#include <algorithm>
#include <iostream>

#include "circuits/synthesis.h"
#include "core/analysis.h"
#include "experiments/cli.h"
#include "experiments/report.h"

namespace {

struct Candidate {
  oisa::core::IsaConfig cfg;
  double rmsRel = 0.0;
  double criticalNs = 0.0;
  double area = 0.0;
  bool pareto = false;
};

int run(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);
  const std::uint64_t samples =
      args.getBounded<std::uint64_t>("samples", 200000, 1);
  const double target = args.getDouble("target", 0.3);
  args.rejectUnread();

  // Candidate space: regular structures like the paper's (2x16, 4x8 blocks).
  std::vector<Candidate> candidates;
  const auto lib = timing::CellLibrary::generic65();
  for (const int block : {8, 16}) {
    for (const int spec : {0, 1, 2, 4, 7}) {
      if (spec > block) continue;
      for (const int corr : {0, 1}) {
        for (const int red : {0, 2, 4, 6, 8}) {
          if (red > block) continue;
          Candidate c;
          c.cfg = core::makeIsa(block, spec, corr, red);
          c.rmsRel = core::sampleStructuralErrors(c.cfg, samples, 42)
                         .relStruct()
                         .rms();

          circuits::SynthesisOptions synth;
          synth.targetPeriodNs = target;
          const auto design = circuits::synthesize(c.cfg, lib, synth);
          c.criticalNs = design.criticalDelayNs;
          c.area = design.areaNand2;
          candidates.push_back(c);
        }
      }
    }
  }

  // Pareto frontier on (rmsRel, criticalNs), both minimized.
  for (Candidate& c : candidates) {
    c.pareto = std::none_of(
        candidates.begin(), candidates.end(), [&](const Candidate& o) {
          return (o.rmsRel < c.rmsRel && o.criticalNs <= c.criticalNs) ||
                 (o.rmsRel <= c.rmsRel && o.criticalNs < c.criticalNs);
        });
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              return x.rmsRel < y.rmsRel;
            });

  std::cout << "== ISA design space (" << candidates.size()
            << " candidates, " << samples << " samples each, target "
            << target << " ns) ==\n\n";
  experiments::Table table({"design", "rms-rel-err[%]", "critical[ns]",
                            "area[NAND2]", "pareto"});
  for (const Candidate& c : candidates) {
    table.addRow({c.cfg.name(),
                  experiments::formatSci(
                      experiments::displayFloor(c.rmsRel * 100.0), 3),
                  experiments::formatFixed(c.criticalNs, 4),
                  experiments::formatFixed(c.area, 0),
                  c.pareto ? "*" : ""});
  }
  table.print(std::cout);
  std::cout << "\n'*' marks the accuracy-delay Pareto frontier.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::experiments::runGuarded([&] { return run(argc, argv); });
}

// Quickstart: build an Inexact Speculative Adder, add numbers, inspect the
// compensation machinery, synthesize its gate-level netlist, overclock it,
// and decompose the resulting errors exactly as the paper does.
//
// Run: ./quickstart
#include <iostream>

#include "circuits/synthesis.h"
#include "core/error_model.h"
#include "core/isa_adder.h"
#include "experiments/cli.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"
#include "timing/sta.h"

namespace {

int run(int argc, char** argv) {
  using namespace oisa;
  experiments::ArgParser(argc, argv).rejectUnread();  // it takes no flags

  // 1. A design point in the paper's quadruple notation:
  //    8-bit blocks, no speculation window, 1-bit correction, 4-bit
  //    error reduction, on 32 bits.
  const core::IsaConfig cfg = core::makeIsa(8, 0, 1, 4);
  const core::IsaAdder isa(cfg);
  std::cout << "design " << cfg.name() << " with " << cfg.pathCount()
            << " speculative paths\n\n";

  // 2. Behavioral addition: y_gold vs the exact y_diamond.
  const std::uint64_t a = 0x0badf00d, b = 0x00ff01f3;
  const core::IsaSum gold = isa.add(a, b);
  const core::IsaSum diamond = isa.exactAdd(a, b);
  std::cout << std::hex << "a        = 0x" << a << "\nb        = 0x" << b
            << "\ny_gold   = 0x" << gold.sum << "\ny_diamond= 0x"
            << diamond.sum << std::dec << "\nE_struct = "
            << isa.structuralError(a, b) << "\n\n";

  // 3. Inspect the per-path compensation decisions.
  std::vector<core::PathTrace> traces;
  (void)isa.addTraced(a, b, false, traces);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    std::cout << "path " << i << ": spec=" << traces[i].specCarry
              << " actual-carry-in=" << traces[i].trueCarryIn
              << " fault=" << traces[i].faultDirection
              << " corrected=" << traces[i].corrected
              << " balanced-prev=" << traces[i].balanced << "\n";
  }

  // 4. The paper's Fig. 4 / Fig. 5 error combination arithmetic.
  std::cout << "\nerror combination (paper Figs. 4-5):\n";
  for (const auto& triple :
       {core::OutputTriple{8, 6, 4}, core::OutputTriple{8, 6, 7}}) {
    const core::ErrorSample s = core::decomposeErrors(triple);
    std::cout << "  diamond=" << triple.diamond << " gold=" << triple.gold
              << " silver=" << triple.silver << " -> RE_struct="
              << *s.reStruct << " RE_timing=" << *s.reTiming
              << " RE_joint=" << *s.reJoint << "\n";
  }

  // 5. Synthesize to gates at the paper's 0.3 ns constraint.
  const auto design = circuits::synthesize(
      cfg, timing::CellLibrary::generic65(), circuits::SynthesisOptions{});
  std::cout << "\nsynthesized with " << circuits::topologyName(design.topology)
            << " sub-adders: " << design.netlist.gateCount() << " gates, "
            << design.criticalDelayNs << " ns critical path ("
            << (design.meetsTiming ? "meets" : "MISSES") << " 0.3 ns)\n";

  // 6. Overclock by 15% and decompose errors over a short random run.
  experiments::UniformWorkload workload(32, /*seed=*/7);
  experiments::TraceCollector collector(
      design, experiments::overclockedPeriodNs(0.3, 15.0));
  const core::ErrorCombination combo =
      experiments::combineErrors(collector, workload, 2000, 32);
  std::cout << "\n15% CPR over 2000 random cycles:\n"
            << "  RE RMS structural = " << combo.relStruct().rms() * 100
            << " %\n  RE RMS timing     = " << combo.relTiming().rms() * 100
            << " %\n  RE RMS joint      = " << combo.relJoint().rms() * 100
            << " %\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::experiments::runGuarded([&] { return run(argc, argv); });
}

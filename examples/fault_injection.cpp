// Walkthrough: stuck-at fault simulation on the compiled-netlist
// substrate, end to end —
//
//   1. import the ISCAS-85 c17 benchmark from its .bench text,
//   2. enumerate and collapse the stuck-at universe,
//   3. run an exhaustive PPSFP coverage campaign (64 patterns/sweep),
//   4. clamp one defect into the 64-lane timed engine and watch the
//      defective circuit's outputs diverge from the healthy machine.
//
// Usage: fault_injection
#include <bit>
#include <iostream>

#include "core/status.h"
#include "experiments/cli.h"
#include "fault/coverage.h"
#include "fault/fault_universe.h"
#include "fault/ppsfp_dispatch.h"
#include "fault/timed_fault.h"
#include "netlist/bench_io.h"
#include "netlist/compiled_netlist.h"
#include "netlist/gate.h"
#include "timing/cell_library.h"
#include "timing/delay_annotation.h"
#include "timing/lane_sim.h"

namespace {

constexpr const char* kC17 = R"(
# ISCAS-85 c17
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

int run(int argc, char** argv) {
  using namespace oisa;
  experiments::ArgParser(argc, argv).rejectUnread();  // it takes no flags

  // 1. Import.
  const netlist::Netlist nl =
      netlist::readBenchString(kC17, "c17").valueOrThrow();
  std::cout << "imported " << nl.name() << ": "
            << nl.primaryInputs().size() << " inputs, "
            << nl.primaryOutputs().size() << " outputs, " << nl.gateCount()
            << " NAND gates\n";

  // 2. Fault universe. One compile is shared by every engine below.
  const auto compiled = netlist::CompiledNetlist::compile(nl);
  fault::FaultUniverse universe(compiled);
  std::cout << "fault universe: " << universe.all().size()
            << " stuck-at faults (stems + fanout branches), collapsed to "
            << universe.collapsed().size() << " equivalence classes\n\n";

  // 3. Exhaustive coverage: c17 has 5 inputs, so all 32 patterns fit in
  // half of one 64-lane block (one pattern word per input, hence the
  // 64-lane engine).
  const auto engine = fault::makePpsfpEngine(compiled, {});
  fault::CoverageOptions options;
  options.patterns = 32;
  bool served = false;
  const auto coverage = fault::runCoverage(
      universe, *engine, options,
      [&](std::span<std::uint64_t> words) -> std::size_t {
        if (served) return 0;
        served = true;
        std::fill(words.begin(), words.end(), 0);
        for (std::uint64_t p = 0; p < 32; ++p) {
          for (std::size_t i = 0; i < words.size(); ++i) {
            words[i] |= ((p >> i) & 1u) << p;
          }
        }
        return 32;
      });
  std::cout << "exhaustive campaign: " << coverage.detectedClasses << "/"
            << coverage.collapsedClasses << " classes detected ("
            << coverage.coverage() * 100.0 << "% — c17 is fully testable)\n";

  // Show the classic per-fault detail for one fault: net 11 stuck at 1.
  fault::Fault sample;
  for (const fault::Fault& f : universe.collapsed()) {
    if (compiled->source().net(netlist::NetId{f.net}).name == "11" &&
        f.stuck == fault::StuckAt::SA1 && f.isStem()) {
      sample = f;
    }
  }
  std::vector<std::uint64_t> words(5, 0);
  for (std::uint64_t p = 0; p < 32; ++p) {
    for (std::size_t i = 0; i < 5; ++i) words[i] |= ((p >> i) & 1u) << p;
  }
  engine->loadPatterns(words, 32);
  std::uint64_t lanes = 0;
  engine->detectLanesInto(sample, {&lanes, 1});
  std::cout << "fault " << fault::describeFault(*compiled, sample)
            << " is detected by " << std::popcount(lanes)
            << " of 32 exhaustive patterns\n\n";

  // 4. Timed injection: clamp the same defect into the 64-lane timed
  // engine (unit delays, relaxed period so everything settles) and
  // compare a defective lane against a healthy lane on one test pattern.
  timing::CellLibrary lib;
  for (const netlist::GateKind kind : netlist::allGateKinds()) {
    lib.cell(kind) = timing::CellTiming{0.05, 0.0, 0.02};
  }
  const timing::DelayAnnotation delays(nl, lib);
  timing::LaneClockedSampler sampler(compiled, delays, 2.0);
  // Defect only in the low 32 lanes; the high 32 stay healthy, so one
  // sweep simulates the defective and the golden machine side by side.
  fault::injectStuckAt(sampler.simulator(), sample, 0xffffffffull);

  // Drive every lane with the first pattern that detects the fault.
  const auto firstLane =
      static_cast<std::uint64_t>(std::countr_zero(lanes));
  std::vector<std::uint64_t> stim(5);
  for (std::size_t i = 0; i < 5; ++i) {
    stim[i] = ((words[i] >> firstLane) & 1u) ? ~std::uint64_t{0} : 0;
  }
  sampler.initialize(stim);
  std::vector<std::uint64_t> out;
  sampler.stepInto(stim, out);
  std::cout << "timed engine, pattern #" << firstLane
            << " on every lane, defect clamped in lanes 0-31:\n";
  for (std::size_t o = 0; o < out.size(); ++o) {
    std::cout << "  output " << nl.outputName(o) << ": defective lane -> "
              << (out[o] & 1u) << ", healthy lane -> "
              << ((out[o] >> 63) & 1u) << "\n";
  }
  std::cout << "\nthe defective lanes sample "
            << ((out[0] ^ (out[0] >> 63)) & 1u ? "different" : "identical")
            << " values — the defect is live in the timed waveform.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::experiments::runGuarded([&] { return run(argc, argv); });
}

// Throughput of the timed trace collector (experiments::TraceCollector,
// which evaluates the design's unrolled sampled-output netlist one
// batch-evaluator sweep per lane block — see timing/unroll.h) against the
// retained sequential reference (collectTraceScalar, one scalar
// wheel-engine cycle per stimulus) on an overclocked 32-bit ISA design.
// Single-thread; the CI gate is in .github/workflows/ci.yml.
//
// Self-checking: before any timing is reported, both collectors run the
// same seeded workload and every trace record must match field for field
// (the unrolled netlist is exact, not approximate — see
// tests/lane_sim_test.cpp and tests/unroll_test.cpp for the differential
// suites).
//
// Usage: micro_lane_sim [--cycles=N] [--check-cycles=N] [--cpr=15]
//                       [--min-speedup=X] [--json=path]
#include <chrono>
#include <cstdlib>
#include <iostream>

#include "circuits/synthesis.h"
#include "core/isa_config.h"
#include "experiments/cli.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"
#include "reference/scalar_collector.h"
#include "timing/cell_library.h"

#include "bench_common.h"

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);
  const std::uint64_t cycles = args.getU64("cycles", 30000);
  const std::uint64_t checkCycles =
      args.getU64("check-cycles", std::min<std::uint64_t>(cycles, 4000));
  const double cpr = args.getDouble("cpr", 15.0);
  const double minSpeedup = args.getDouble("min-speedup", 0.0);

  circuits::SynthesisOptions synth;
  synth.relaxSlack = true;  // the benches' default sign-off flow
  const auto design = circuits::synthesize(
      core::makeIsa(8, 2, 1, 4), timing::CellLibrary::generic65(), synth);
  const double period = experiments::overclockedPeriodNs(0.3, cpr);

  experiments::TraceCollector collector(design, period);
  std::cout << "design:  " << design.config.name() << "  ("
            << design.netlist.gateCount() << " gates, critical "
            << design.criticalDelayNs << " ns)\n"
            << "period:  " << period << " ns (" << cpr << "% CPR)\n"
            << "unrolled: " << collector.unrolledGates()
            << " gates over " << collector.historyDepth()
            << " stimuli per record\ncycles:  " << cycles << "\n\n";

  // Correctness gate: identical records from identically-seeded streams.
  {
    experiments::UniformWorkload scalarWl(32, 123);
    experiments::UniformWorkload laneWl(32, 123);
    const auto scalar = experiments::collectTraceScalar(
        design, period, scalarWl, checkCycles);
    const auto lane = collector.collect(laneWl, checkCycles);
    for (std::size_t t = 0; t < scalar.size(); ++t) {
      const auto& s = scalar[t];
      const auto& l = lane[t];
      if (l.a != s.a || l.b != s.b || l.carryIn != s.carryIn ||
          l.diamond != s.diamond || l.diamondCout != s.diamondCout ||
          l.gold != s.gold || l.goldCout != s.goldCout ||
          l.silver != s.silver || l.silverCout != s.silverCout) {
        std::cerr << "MISMATCH: lane and scalar collectors disagree at "
                  << "cycle " << t << "\n";
        return EXIT_FAILURE;
      }
    }
  }

  std::uint64_t checksum = 0;

  // Sequential reference: the seed per-cycle collection loop.
  double scalarSec = 0.0;
  {
    experiments::UniformWorkload workload(32, 7);
    const auto start = Clock::now();
    const auto trace =
        experiments::collectTraceScalar(design, period, workload, cycles);
    scalarSec = secondsSince(start);
    for (const auto& rec : trace) checksum += rec.silver;
  }

  // Collector path: one batch sweep of the unrolled netlist per lane block.
  double laneSec = 0.0;
  {
    experiments::UniformWorkload workload(32, 7);
    const auto start = Clock::now();
    const auto trace = collector.collect(workload, cycles);
    laneSec = secondsSince(start);
    for (const auto& rec : trace) checksum -= rec.silver;
  }
  if (checksum != 0) {
    std::cerr << "MISMATCH: timed runs disagree (checksum " << checksum
              << ")\n";
    return EXIT_FAILURE;
  }

  const auto total = static_cast<double>(cycles);
  const double scalarRate = total / scalarSec;
  const double laneRate = total / laneSec;
  const double speedup = scalarRate > 0 ? laneRate / scalarRate : 0.0;
  std::cout << "scalar collector:   " << scalarSec << " s  ("
            << scalarRate / 1e3 << " kcycles/s)\n"
            << "unrolled collector: " << laneSec << " s  ("
            << laneRate / 1e3 << " kcycles/s)\n"
            << "speedup:            " << speedup << "x\n";

  bench::BenchJson json("micro_lane_sim");
  json.add("design", design.config.name())
      .add("gates", static_cast<std::uint64_t>(design.netlist.gateCount()))
      .add("cycles", cycles)
      .add("period_ns", period)
      .add("cpr_percent", cpr)
      .add("unrolled_gates",
           static_cast<std::uint64_t>(collector.unrolledGates()))
      .add("history", static_cast<std::uint64_t>(collector.historyDepth()))
      .add("scalar_cycles_per_sec", scalarRate)
      .add("lane_cycles_per_sec", laneRate);
  return bench::finishSpeedupBench(json, args, speedup, minSpeedup);
}

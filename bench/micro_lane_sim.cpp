// Throughput of the timed trace collector (experiments::TraceCollector,
// which evaluates the design's unrolled sampled-output netlist one
// batch-evaluator sweep per lane block — see timing/unroll.h) against the
// retained sequential reference (collectTraceScalar, one event-wheel
// cycle per stimulus, the stream in lane 0) on an overclocked 32-bit ISA
// design.
// Single-thread; the CI gate is in .github/workflows/ci.yml.
//
// Self-checking: before any timing is reported, both collectors run the
// same seeded workload and every trace record must match field for field
// (the unrolled netlist is exact, not approximate — see
// tests/lane_sim_test.cpp and tests/unroll_test.cpp for the differential
// suites), and in every timed run.
//
// Usage: micro_lane_sim [--min-speedup=X] [--json=path] [--threads=N]
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

constexpr double kCpr = 15.0;
constexpr std::uint64_t kCycles = 50000;  // per run, 2+ collector windows
constexpr std::uint64_t kCheckCycles = 4000;
constexpr std::size_t kPairs = 5;

int main(int argc, char** argv) {
  using namespace oisa;
  return experiments::runGuarded([&] {
    const experiments::ArgParser args(argc, argv);
    const bench::GateOptions gate = bench::gateOptions(args);
    args.rejectUnread();

    circuits::SynthesisOptions synth;
    synth.relaxSlack = true;  // the benches' default sign-off flow
    const auto design = circuits::synthesize(
        core::makeIsa(8, 2, 1, 4), timing::CellLibrary::generic65(), synth);
    const double period = experiments::overclockedPeriodNs(0.3, kCpr);

    experiments::TraceCollector collector(design, period);
    std::cout << "design:  " << design.config.name() << "  ("
              << design.netlist.gateCount() << " gates, critical "
              << design.criticalDelayNs << " ns)\n"
              << "period:  " << period << " ns (" << kCpr << "% CPR)\n"
              << "unrolled: " << collector.unrolledGates()
              << " gates over " << collector.historyDepth()
              << " stimuli per record\ncycles:  " << kCycles << " per run, "
              << kPairs << " pairs\n\n";

    // Correctness gate: identical records from identically-seeded streams.
    {
      experiments::UniformWorkload scalarWl(32, 123);
      experiments::UniformWorkload laneWl(32, 123);
      const auto scalar = experiments::collectTraceScalar(
          design, period, scalarWl, kCheckCycles);
      const auto lane = collector.collect(laneWl, kCheckCycles);
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

    // Each run collects kCycles records from a fresh seed-7 stream.
    std::uint64_t scalarSum = 0;
    std::uint64_t laneSum = 0;
    const bench::PairTiming timing = bench::timePairs(
        kPairs,
        [&] {
          experiments::UniformWorkload workload(32, 7);
          scalarSum = 0;
          for (const auto& rec : experiments::collectTraceScalar(
                   design, period, workload, kCycles)) {
            scalarSum += rec.silver;
          }
        },
        [&] {
          experiments::UniformWorkload workload(32, 7);
          laneSum = 0;
          for (const auto& rec : collector.collect(workload, kCycles)) {
            laneSum += rec.silver;
          }
        });
    if (scalarSum != laneSum) {
      std::cerr << "MISMATCH: timed runs disagree (checksum " << scalarSum
                << " vs " << laneSum << ")\n";
      return EXIT_FAILURE;
    }

    const auto total = static_cast<double>(kCycles);
    const double scalarRate = total / timing.referenceSec;
    const double laneRate = total / timing.contenderSec;
    std::cout << "scalar collector:   " << timing.referenceSec << " s  ("
              << scalarRate / 1e3 << " kcycles/s)\n"
              << "unrolled collector: " << timing.contenderSec << " s  ("
              << laneRate / 1e3 << " kcycles/s)\n";

    bench::BenchJson json("micro_lane_sim");
    json.add("design", design.config.name())
        .add("gates", static_cast<std::uint64_t>(design.netlist.gateCount()))
        .add("cycles", kCycles)
        .add("period_ns", period)
        .add("cpr_percent", kCpr)
        .add("unrolled_gates",
             static_cast<std::uint64_t>(collector.unrolledGates()))
        .add("history", static_cast<std::uint64_t>(collector.historyDepth()))
        .add("scalar_cycles_per_sec", scalarRate)
        .add("lane_cycles_per_sec", laneRate);
    return bench::finishSpeedupBench(json, gate, timing.speedup, kPairs);
  });
}

// Throughput of the integer-time wheel engine (timing::TimedSimulator)
// against the seed binary-heap engine (timing::HeapSimulator) on an
// overclocked 32-bit ISA design — the acceptance benchmark for the timed
// rework (>= 5x single-thread is the CI gate). Both engines run the
// identical clocked loop: apply inputs, advance one period, latch outputs.
// The heap path reproduces the seed ClockedSampler cycle (per-cycle
// packOperands and sampleOutputs allocations, binary-heap events); the
// wheel path is the allocation-free stepInto.
//
// Self-checking: both engines must latch identical outputs on every
// warm-up cycle before any timing is reported (they share the integer-ps
// grid, so agreement is exact, not approximate), and in every timed run.
//
// Usage: micro_timed_sim [--min-speedup=X] [--json=path] [--threads=N]
#include <cstdlib>
#include <iostream>
#include <random>
#include <vector>

#include "circuits/isa_netlist.h"
#include "core/isa_config.h"
#include "experiments/cli.h"
#include "reference/heap_sim.h"
#include "timing/event_sim.h"
#include "timing/sta.h"

#include "bench_common.h"

constexpr double kCpr = 15.0;
constexpr std::uint64_t kCycles = 5000;  // per timed run
constexpr std::uint64_t kCheckCycles = 2000;
constexpr std::size_t kPairs = 11;

int main(int argc, char** argv) {
  using namespace oisa;
  return bench::runGuarded([&] {
    const experiments::ArgParser args(argc, argv);
    const bench::GateOptions gate = bench::gateOptions(args);
    args.rejectUnread();

    const auto cfg = core::makeIsa(8, 2, 1, 4);  // 32-bit paper design
    const auto nl = circuits::buildIsaNetlist(cfg);
    const timing::CellLibrary lib = timing::CellLibrary::generic65();
    const timing::DelayAnnotation delays(nl, lib);
    const double critical = timing::criticalDelayNs(nl, delays);
    const double period = critical * (1.0 - kCpr / 100.0);

    timing::HeapSimulator heap(nl, delays);
    timing::ClockedSampler wheel(nl, delays, period);
    const timing::TimePs periodPs = wheel.periodPs();

    std::cout << "netlist: " << cfg.name() << "  (" << nl.gateCount()
              << " gates, critical " << critical << " ns)\n"
              << "period:  " << period << " ns (" << kCpr << "% CPR, "
              << periodPs << " ps)\ncycles:  " << kCycles << " per run, "
              << kPairs << " pairs\n\n";

    // Pre-generate the stimulus so both runs time pure simulation.
    std::mt19937_64 rng(123);
    std::vector<std::uint64_t> as(kCycles + 1), bs(kCycles + 1);
    for (auto& v : as) v = rng();
    for (auto& v : bs) v = rng();

    // Correctness gate: both engines must latch identical outputs every
    // cycle (exact, thanks to the shared integer-ps time grid).
    {
      timing::HeapSimulator h(nl, delays);
      timing::ClockedSampler w(nl, delays, period);
      std::vector<std::uint8_t> in;
      std::vector<std::uint8_t> wheelOut;
      circuits::packOperandsInto(as[0], bs[0], false, 32, in);
      h.applyInputs(in);
      (void)h.settlePs();
      w.initialize(in);
      for (std::uint64_t t = 1; t <= kCheckCycles; ++t) {
        circuits::packOperandsInto(as[t], bs[t], false, 32, in);
        h.applyInputs(in);
        h.advancePs(periodPs);
        w.stepInto(in, wheelOut);
        if (h.sampleOutputs() != wheelOut) {
          std::cerr << "MISMATCH: wheel and heap engines disagree at cycle "
                    << t << "\n";
          return EXIT_FAILURE;
        }
      }
      if (h.eventsProcessed() != w.simulator().eventsProcessed()) {
        std::cerr << "MISMATCH: event counts differ (heap "
                  << h.eventsProcessed() << ", wheel "
                  << w.simulator().eventsProcessed() << ")\n";
        return EXIT_FAILURE;
      }
    }

    // Every run settles on stimulus 0, then clocks stimuli 1..kCycles: the
    // heap path as the seed ClockedSampler did, allocating every cycle.
    std::uint64_t heapSum = 0;
    std::uint64_t wheelSum = 0;
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;
    const bench::PairTiming timing = bench::timePairs(
        kPairs,
        [&] {
          heapSum = 0;
          heap.applyInputs(circuits::packOperands(as[0], bs[0], false, 32));
          (void)heap.settlePs();
          for (std::uint64_t t = 1; t <= kCycles; ++t) {
            heap.applyInputs(circuits::packOperands(as[t], bs[t], false, 32));
            heap.advancePs(periodPs);
            heapSum += heap.sampleOutputs().back();
          }
        },
        [&] {
          wheelSum = 0;
          circuits::packOperandsInto(as[0], bs[0], false, 32, in);
          wheel.initialize(in);
          for (std::uint64_t t = 1; t <= kCycles; ++t) {
            circuits::packOperandsInto(as[t], bs[t], false, 32, in);
            wheel.stepInto(in, out);
            wheelSum += out.back();
          }
        });
    if (heapSum != wheelSum) {
      std::cerr << "MISMATCH: timed runs disagree on the last output\n";
      return EXIT_FAILURE;
    }

    const auto total = static_cast<double>(kCycles);
    const double heapRate = total / timing.referenceSec;
    const double wheelRate = total / timing.contenderSec;
    const double eventsPerCycle =
        static_cast<double>(wheel.simulator().eventsProcessed()) /
        (total * static_cast<double>(kPairs));
    std::cout << "heap engine (seed):  " << timing.referenceSec << " s  ("
              << heapRate / 1e3 << " kcycles/s)\n"
              << "wheel engine:        " << timing.contenderSec << " s  ("
              << wheelRate / 1e3 << " kcycles/s)\n"
              << "events/cycle:        " << eventsPerCycle << "\n"
              << "(checksum " << wheelSum << ")\n";

    bench::BenchJson json("micro_timed_sim");
    json.add("design", cfg.name())
        .add("gates", static_cast<std::uint64_t>(nl.gateCount()))
        .add("cycles", kCycles)
        .add("period_ns", period)
        .add("cpr_percent", kCpr)
        .add("heap_cycles_per_sec", heapRate)
        .add("wheel_cycles_per_sec", wheelRate)
        .add("events_per_cycle", eventsPerCycle);
    return bench::finishSpeedupBench(json, gate, timing.speedup, kPairs);
  });
}

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
// grid, so agreement is exact, not approximate).
//
// Usage: micro_timed_sim [--cycles=N] [--cpr=15] [--min-speedup=X]
//                        [--json=path]
#include <chrono>
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

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);
  const std::uint64_t cycles = args.getU64("cycles", 20000);
  const double cpr = args.getDouble("cpr", 15.0);
  const double minSpeedup = args.getDouble("min-speedup", 0.0);

  const auto cfg = core::makeIsa(8, 2, 1, 4);  // 32-bit paper design
  const auto nl = circuits::buildIsaNetlist(cfg);
  const timing::CellLibrary lib = timing::CellLibrary::generic65();
  const timing::DelayAnnotation delays(nl, lib);
  const double critical = timing::criticalDelayNs(nl, delays);
  const double period = critical * (1.0 - cpr / 100.0);

  timing::HeapSimulator heap(nl, delays);
  timing::ClockedSampler wheel(nl, delays, period);
  const timing::TimePs periodPs = wheel.periodPs();

  std::cout << "netlist: " << cfg.name() << "  (" << nl.gateCount()
            << " gates, critical " << critical << " ns)\n"
            << "period:  " << period << " ns (" << cpr << "% CPR, "
            << periodPs << " ps)\ncycles:  " << cycles << "\n\n";

  // Pre-generate the stimulus so both loops time pure simulation.
  std::mt19937_64 rng(123);
  std::vector<std::uint64_t> as(cycles + 1), bs(cycles + 1);
  for (auto& v : as) v = rng();
  for (auto& v : bs) v = rng();

  // Correctness gate: both engines must latch identical outputs every
  // cycle (exact, thanks to the shared integer-ps time grid).
  {
    timing::HeapSimulator h(nl, delays);
    timing::ClockedSampler w(nl, delays, period);
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> wheelOut;
    const std::uint64_t checkCycles = std::min<std::uint64_t>(cycles, 2000);
    circuits::packOperandsInto(as[0], bs[0], false, 32, in);
    h.applyInputs(in);
    (void)h.settlePs();
    w.initialize(in);
    for (std::uint64_t t = 1; t <= checkCycles; ++t) {
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

  std::uint64_t checksum = 0;

  // Seed path: heap engine driven exactly like the seed ClockedSampler —
  // packOperands and sampleOutputs allocate every cycle.
  heap.applyInputs(circuits::packOperands(as[0], bs[0], false, 32));
  (void)heap.settlePs();
  const auto heapStart = Clock::now();
  for (std::uint64_t t = 1; t <= cycles; ++t) {
    heap.applyInputs(circuits::packOperands(as[t], bs[t], false, 32));
    heap.advancePs(periodPs);
    checksum += heap.sampleOutputs().back();
  }
  const double heapSec = secondsSince(heapStart);

  // Wheel path: allocation-free stepInto with reused buffers.
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> out;
  circuits::packOperandsInto(as[0], bs[0], false, 32, in);
  wheel.initialize(in);
  const auto wheelStart = Clock::now();
  for (std::uint64_t t = 1; t <= cycles; ++t) {
    circuits::packOperandsInto(as[t], bs[t], false, 32, in);
    wheel.stepInto(in, out);
    checksum += out.back();
  }
  const double wheelSec = secondsSince(wheelStart);

  const auto total = static_cast<double>(cycles);
  const double heapRate = total / heapSec;
  const double wheelRate = total / wheelSec;
  const double speedup = heapRate > 0 ? wheelRate / heapRate : 0.0;
  const double eventsPerCycle =
      static_cast<double>(wheel.simulator().eventsProcessed()) / total;
  std::cout << "heap engine (seed):  " << heapSec << " s  ("
            << heapRate / 1e3 << " kcycles/s)\n"
            << "wheel engine:        " << wheelSec << " s  ("
            << wheelRate / 1e3 << " kcycles/s)\n"
            << "speedup:             " << speedup << "x\n"
            << "events/cycle:        " << eventsPerCycle << "\n"
            << "(checksum " << (checksum & 0xffff) << ")\n";

  bench::BenchJson json("micro_timed_sim");
  json.add("design", cfg.name())
      .add("gates", static_cast<std::uint64_t>(nl.gateCount()))
      .add("cycles", cycles)
      .add("period_ns", period)
      .add("cpr_percent", cpr)
      .add("heap_cycles_per_sec", heapRate)
      .add("wheel_cycles_per_sec", wheelRate)
      .add("events_per_cycle", eventsPerCycle);
  return bench::finishSpeedupBench(json, args, speedup, minSpeedup);
}

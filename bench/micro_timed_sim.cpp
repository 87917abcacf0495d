// Throughput of the event wheel (timing::LaneTimedSimulator, clocked by
// timing::LaneClockedSampler) against the seed binary-heap engine
// (timing::HeapSimulator) on an overclocked 32-bit ISA design. The wheel
// clocks 64 independent operand streams at once, one per lane; the heap
// engine replays each of those streams on its own. Both run the identical
// clocked loop per stream: apply inputs, advance one period, latch
// outputs. The heap path reproduces the seed sampler's cycle (per-cycle
// packOperands and sampleOutputs allocations, binary-heap events); the
// wheel path steps prepacked lane words into a reused output buffer.
//
// Self-checking: before any timing is reported, every lane's latched
// outputs must equal its heap replay's on every cycle (both engines share
// the integer-ps grid, so agreement is exact, not approximate), and every
// timed run must agree on a checksum of the carry-outs.
//
// Usage: micro_timed_sim [--min-speedup=X] [--json=path] [--threads=N]
#include <bit>
#include <cstdlib>
#include <iostream>
#include <random>
#include <vector>

#include "circuits/isa_netlist.h"
#include "core/isa_config.h"
#include "experiments/cli.h"
#include "netlist/compiled_netlist.h"
#include "reference/heap_sim.h"
#include "timing/lane_sim.h"
#include "timing/sta.h"

#include "bench_common.h"

constexpr double kCpr = 15.0;
constexpr std::size_t kStreams = oisa::timing::LaneTimedSimulator::kLanes;
constexpr std::uint64_t kSteps = 78;  // per stream and run: 4,992 cycles
constexpr std::size_t kPairs = 11;

int main(int argc, char** argv) {
  using namespace oisa;
  return experiments::runGuarded([&] {
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
    timing::LaneClockedSampler wheel(netlist::CompiledNetlist::compile(nl),
                                     delays, period);
    const timing::TimePs periodPs = wheel.periodPs();
    const std::uint64_t cycles = kStreams * kSteps;

    std::cout << "netlist: " << cfg.name() << "  (" << nl.gateCount()
              << " gates, critical " << critical << " ns)\n"
              << "period:  " << period << " ns (" << kCpr << "% CPR, "
              << periodPs << " ps)\ncycles:  " << kStreams << " streams x "
              << kSteps << " per run, " << kPairs << " pairs\n\n";

    // Pre-generate the streams so both sides time pure simulation: the
    // heap reads stream L's operands at step t, the wheel the packed words
    // of step t (bit L of input word i is stream L's value of input i).
    std::mt19937_64 rng(123);
    std::vector<std::uint64_t> as((kSteps + 1) * kStreams);
    std::vector<std::uint64_t> bs(as.size());
    for (auto& v : as) v = rng();
    for (auto& v : bs) v = rng();
    const auto at = [](std::uint64_t t, std::size_t lane) {
      return t * kStreams + lane;
    };
    std::vector<std::vector<std::uint64_t>> words(kSteps + 1);
    for (std::uint64_t t = 0; t <= kSteps; ++t) {
      words[t].assign(65, 0);
      for (std::size_t L = 0; L < kStreams; ++L) {
        for (std::size_t i = 0; i < 32; ++i) {
          words[t][i] |= ((as[at(t, L)] >> i) & 1u) << L;
          words[t][32 + i] |= ((bs[at(t, L)] >> i) & 1u) << L;
        }
      }
    }

    // Correctness gate: every lane's latched outputs equal its heap
    // replay's on every cycle.
    {
      std::vector<std::vector<std::uint64_t>> wheelOut(kSteps + 1);
      wheel.initialize(words[0]);
      for (std::uint64_t t = 1; t <= kSteps; ++t) {
        wheel.stepInto(words[t], wheelOut[t]);
      }
      for (std::size_t L = 0; L < kStreams; ++L) {
        timing::HeapSimulator h(nl, delays);
        h.applyInputs(circuits::packOperands(as[at(0, L)], bs[at(0, L)],
                                             false, 32));
        (void)h.settlePs();
        for (std::uint64_t t = 1; t <= kSteps; ++t) {
          h.applyInputs(circuits::packOperands(as[at(t, L)], bs[at(t, L)],
                                               false, 32));
          h.advancePs(periodPs);
          const auto heapOut = h.sampleOutputs();
          for (std::size_t o = 0; o < heapOut.size(); ++o) {
            if (((wheelOut[t][o] >> L) & 1u) != heapOut[o]) {
              std::cerr << "MISMATCH: wheel lane " << L
                        << " and its heap replay disagree at cycle " << t
                        << ", output " << o << "\n";
              return EXIT_FAILURE;
            }
          }
        }
      }
    }

    // Every run settles each stream on its step-0 operands, then clocks
    // steps 1..kSteps: the heap stream by stream, allocating every cycle
    // as the seed sampler did; the wheel all 64 streams at once.
    std::uint64_t heapSum = 0;
    std::uint64_t wheelSum = 0;
    std::vector<std::uint64_t> out;
    const bench::PairTiming timing = bench::timePairs(
        kPairs,
        [&] {
          heapSum = 0;
          for (std::size_t L = 0; L < kStreams; ++L) {
            heap.reset();
            heap.applyInputs(circuits::packOperands(
                as[at(0, L)], bs[at(0, L)], false, 32));
            (void)heap.settlePs();
            for (std::uint64_t t = 1; t <= kSteps; ++t) {
              heap.applyInputs(circuits::packOperands(
                  as[at(t, L)], bs[at(t, L)], false, 32));
              heap.advancePs(periodPs);
              heapSum += heap.sampleOutputs().back();
            }
          }
        },
        [&] {
          wheelSum = 0;
          wheel.simulator().reset();
          wheel.initialize(words[0]);
          for (std::uint64_t t = 1; t <= kSteps; ++t) {
            wheel.stepInto(words[t], out);
            wheelSum += static_cast<std::uint64_t>(std::popcount(out.back()));
          }
        });
    if (heapSum != wheelSum) {
      std::cerr << "MISMATCH: timed runs disagree on the carry-outs\n";
      return EXIT_FAILURE;
    }

    const auto total = static_cast<double>(cycles);
    const double heapRate = total / timing.referenceSec;
    const double wheelRate = total / timing.contenderSec;
    const double eventsPerStep =
        static_cast<double>(wheel.simulator().eventsProcessed()) /
        static_cast<double>(kSteps);
    std::cout << "heap engine (seed), stream by stream: "
              << timing.referenceSec << " s  (" << heapRate / 1e3
              << " kcycles/s)\n"
              << "event wheel, 64 streams at once:      "
              << timing.contenderSec << " s  (" << wheelRate / 1e3
              << " kcycles/s)\n"
              << "wheel events per step:                " << eventsPerStep
              << "\n(checksum " << wheelSum << ")\n";

    bench::BenchJson json("micro_timed_sim");
    json.add("design", cfg.name())
        .add("gates", static_cast<std::uint64_t>(nl.gateCount()))
        .add("cycles", cycles)
        .add("streams", static_cast<std::uint64_t>(kStreams))
        .add("period_ns", period)
        .add("cpr_percent", kCpr)
        .add("heap_cycles_per_sec", heapRate)
        .add("wheel_cycles_per_sec", wheelRate)
        .add("events_per_cycle", eventsPerStep / kStreams);
    return bench::finishSpeedupBench(json, gate, timing.speedup, kPairs);
  });
}

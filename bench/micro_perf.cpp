// Google-benchmark microbenchmarks: throughput of the substrates that the
// figure pipelines stress — behavioral ISA addition, zero-delay netlist
// evaluation, event-driven overclocked sampling, STA, and forest inference.
#include <benchmark/benchmark.h>

#include <random>

#include "circuits/synthesis.h"
#include "core/isa_adder.h"
#include "ml/flat_forest.h"
#include "netlist/evaluator.h"
#include "timing/event_sim.h"
#include "timing/sta.h"

namespace {

using oisa::circuits::packOperands;
using oisa::timing::CellLibrary;

const oisa::circuits::SynthesizedDesign& design804() {
  static const auto d = oisa::circuits::synthesize(
      oisa::core::makeIsa(8, 0, 0, 4), CellLibrary::generic65(),
      oisa::circuits::SynthesisOptions{});
  return d;
}

void BM_BehavioralIsaAdd(benchmark::State& state) {
  const oisa::core::IsaAdder isa(oisa::core::makeIsa(8, 0, 0, 4));
  std::mt19937_64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(isa.add(rng(), rng()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BehavioralIsaAdd);

void BM_BehavioralExactAdd(benchmark::State& state) {
  const oisa::core::IsaAdder isa(oisa::core::makeExact(32));
  std::mt19937_64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(isa.add(rng(), rng()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BehavioralExactAdd);

void BM_ZeroDelayNetlistEval(benchmark::State& state) {
  const auto& d = design804();
  const oisa::netlist::Evaluator eval(d.netlist);
  std::mt19937_64 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eval.evaluateOutputs(packOperands(rng(), rng(), false, 32)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ZeroDelayNetlistEval);

void BM_OverclockedSamplerStep(benchmark::State& state) {
  const auto& d = design804();
  const double period = 0.3 * (1.0 - static_cast<double>(state.range(0)) / 100.0);
  oisa::timing::ClockedSampler sampler(d.netlist, d.delays, period);
  std::mt19937_64 rng(3);
  sampler.initialize(packOperands(rng(), rng(), false, 32));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sampler.step(packOperands(rng(), rng(), false, 32)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OverclockedSamplerStep)->Arg(0)->Arg(5)->Arg(15);

void BM_StaticTimingAnalysis(benchmark::State& state) {
  const auto& d = design804();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oisa::timing::analyze(d.netlist, d.delays, 0.3));
  }
}
BENCHMARK(BM_StaticTimingAnalysis);

void BM_SynthesizeDesign(benchmark::State& state) {
  const CellLibrary lib = CellLibrary::generic65();
  for (auto _ : state) {
    benchmark::DoNotOptimize(oisa::circuits::synthesize(
        oisa::core::makeIsa(16, 2, 1, 6), lib,
        oisa::circuits::SynthesisOptions{}));
  }
}
BENCHMARK(BM_SynthesizeDesign);

void BM_ForestInference(benchmark::State& state) {
  // A forest trained on synthetic transition-rule data, sized like the
  // per-bit timing models.
  oisa::ml::Dataset data(130);
  std::mt19937_64 rng(5);
  std::vector<std::uint8_t> row(130);
  for (int i = 0; i < 4000; ++i) {
    for (auto& v : row) v = static_cast<std::uint8_t>(rng() & 1);
    data.addRow(row, (row[0] & ~row[65]) != 0);
  }
  oisa::ml::FlatForestBank bank(130);
  oisa::ml::ForestParams params;
  params.treeCount = 10;
  bank.addForest(data.packed(), params, 1);
  const oisa::ml::FlatForest forest(bank.view(), 0);
  for (auto _ : state) {
    for (auto& v : row) v = static_cast<std::uint8_t>(rng() & 1);
    benchmark::DoNotOptimize(forest.predict(row));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ForestInference);

}  // namespace

BENCHMARK_MAIN();

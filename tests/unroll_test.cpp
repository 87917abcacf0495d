// Differential suite for timing::unrollSampled. The reference is the
// 64-lane wheel engine driven directly, one stream per lane: it settles on
// step 0 and latches one output word per input at every later edge, with
// clamps injected as stem stuck-at faults. The unrolled netlist, evaluated
// on each record's current and k - 1 previous steps (the settle vector
// standing in before the first), must latch the same words on random
// netlists with random quantized delays, zero-delay gates and reconvergent
// fanout; on all twelve paper designs at 5-75% CPR under uniform,
// random-walk and sparse-toggle stimulus; under stem and primary-input
// clamps; and on the width-64 design. Its settled outputs, on the same
// netlists and under the same clamps, must equal the zero-delay batch
// evaluator of the unclamped source on each record's own step. The
// collector is checked against the same wheel at 64 interleaved streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "circuits/synthesis.h"
#include "core/isa_config.h"
#include "core/status.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"
#include "fault/fault_universe.h"
#include "fault/timed_fault.h"
#include "netlist/batch_evaluator.h"
#include "netlist/bench_io.h"
#include "netlist/compiled_netlist.h"
#include "netlist/netlist.h"
#include "timing/cell_library.h"
#include "timing/delay_annotation.h"
#include "timing/lane_sim.h"
#include "timing/unroll.h"

#include "differential_harness.h"

namespace {

using oisa::circuits::SynthesizedDesign;
using oisa::experiments::Stimulus;
using oisa::netlist::CompiledNetlist;
using oisa::netlist::GateKind;
using oisa::netlist::NetId;
using oisa::netlist::Netlist;
using oisa::timing::DelayAnnotation;
using oisa::timing::NetClamp;
using oisa::timing::TimePs;

/// One 64-lane word per primary input for each step; step 0 is the settle
/// vector, step t + 1 drives record t.
using Steps = std::vector<std::vector<std::uint64_t>>;

/// Asserts that the unrolled netlist latches what the lane wheel latches
/// for every record of `steps` and settles where the unclamped source
/// settles on the record's step, and returns its history depth in
/// `history`.
void expectMatchesWheel(const Netlist& nl, const DelayAnnotation& delays,
                        double periodNs, const Steps& steps,
                        std::span<const NetClamp> clamps, int& history) {
  const auto compiled = CompiledNetlist::compile(nl);
  const auto unrolled = oisa::timing::unrollSampled(
      *compiled, delays, oisa::timing::quantizeSpanPs(periodNs), clamps);
  history = unrolled.history;
  ASSERT_EQ(unrolled.netlist.primaryInputs().size(),
            static_cast<std::size_t>(history) * nl.primaryInputs().size());
  const std::size_t outputs = nl.primaryOutputs().size();
  ASSERT_EQ(unrolled.netlist.primaryOutputs().size(), 2 * outputs);
  const oisa::netlist::BatchEvaluator sampled(unrolled.netlist);
  const oisa::netlist::BatchEvaluator settled(nl);

  oisa::timing::LaneClockedSampler wheel(compiled, delays, periodNs);
  for (const NetClamp& c : clamps) {
    oisa::fault::injectStuckAt(
        wheel.simulator(),
        oisa::fault::Fault{c.net, oisa::fault::Fault::kStem,
                           c.value ? oisa::fault::StuckAt::SA1
                                   : oisa::fault::StuckAt::SA0});
  }
  wheel.initialize(steps[0]);

  const std::size_t inputs = nl.primaryInputs().size();
  std::vector<std::uint64_t> planes(static_cast<std::size_t>(history) *
                                    inputs);
  std::vector<std::uint64_t> latched;
  for (std::size_t t = 0; t + 1 < steps.size(); ++t) {
    wheel.stepInto(steps[t + 1], latched);
    for (std::size_t j = 0; j < static_cast<std::size_t>(history); ++j) {
      const auto& step = steps[t + 1 >= j ? t + 1 - j : 0];
      std::copy(step.begin(), step.end(),
                planes.begin() + static_cast<std::ptrdiff_t>(j * inputs));
    }
    const std::vector<std::uint64_t> words = sampled.evaluateOutputs(planes);
    const auto mid = words.begin() + static_cast<std::ptrdiff_t>(outputs);
    ASSERT_EQ(std::vector(words.begin(), mid), latched) << "record " << t;
    ASSERT_EQ(std::vector(mid, words.end()),
              settled.evaluateOutputs(steps[t + 1]))
        << "record " << t << ", settled";
  }
}

/// `cycles` + 1 steps of the `kind` workload, one stream per lane (lane l
/// draws from a workload seeded seed * 64 + l), packed on the adder ports.
Steps adderSteps(const std::string& kind, int width, std::uint64_t seed,
                 int cycles) {
  std::vector<std::unique_ptr<oisa::experiments::Workload>> lanes;
  for (std::uint64_t l = 0; l < 64; ++l) {
    lanes.push_back(
        oisa::experiments::makeWorkload(kind, width, seed * 64 + l));
  }
  Steps steps(static_cast<std::size_t>(cycles) + 1);
  std::vector<Stimulus> block(64);
  for (auto& step : steps) {
    for (std::size_t l = 0; l < 64; ++l) block[l] = lanes[l]->next();
    step.resize(static_cast<std::size_t>(2 * width + 1));
    oisa::experiments::packStimulusBlock(block, width, step);
  }
  return steps;
}

const std::vector<SynthesizedDesign>& paperDesigns() {
  static const std::vector<SynthesizedDesign> designs = [] {
    oisa::circuits::SynthesisOptions options;
    options.relaxSlack = true;  // the figure benches' sign-off flow
    return oisa::circuits::synthesizePaperDesigns(
        oisa::timing::CellLibrary::generic65(), options);
  }();
  return designs;
}

TEST(UnrollTest, HistoryDepthCountsThePeriodsAPathSpans) {
  // in -> BUF(10 ps) -> BUF(10 ps) -> out. The latch reads 1 ps before the
  // edge, so a 20 ps path reaches the previous stimulus once P <= 20 ps.
  Netlist nl("chain");
  const NetId mid = nl.gate1(GateKind::Buf, nl.input("in"));
  nl.output("out", nl.gate1(GateKind::Buf, mid));
  DelayAnnotation delays(nl, oisa::testing::unitLibrary());
  delays.setDelayNs(oisa::netlist::GateId{0}, 0.010);
  delays.setDelayNs(oisa::netlist::GateId{1}, 0.010);
  std::mt19937_64 rng(3);
  Steps steps(200);
  for (auto& step : steps) step = {rng()};
  for (const auto& [periodPs, expected] :
       {std::pair{21, 1}, std::pair{20, 2}, std::pair{11, 2},
        std::pair{10, 3}, std::pair{7, 3}, std::pair{6, 4}}) {
    SCOPED_TRACE("period " + std::to_string(periodPs) + " ps");
    int history = 0;
    expectMatchesWheel(nl, delays, periodPs / 1000.0, steps, {}, history);
    EXPECT_EQ(history, expected);
  }
}

TEST(UnrollTest, RandomNetlistsWithRandomDelaysMatchTheWheel) {
  int deepest = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    OISA_TRACE_SEED(seed);
    std::mt19937_64 rng(seed);
    const int inputs = 4 + static_cast<int>(rng() % 9);
    const Netlist nl = oisa::testing::randomNetlist(
        rng, inputs, 20 + static_cast<int>(rng() % 100));
    DelayAnnotation delays(nl, oisa::testing::unitLibrary());
    for (std::uint32_t g = 0; g < nl.gateCount(); ++g) {
      // One gate in five is zero-delay; the rest take 1..40 ps.
      const TimePs ps =
          rng() % 5 == 0 ? 0 : 1 + static_cast<TimePs>(rng() % 40);
      delays.setDelayNs(oisa::netlist::GateId{g},
                        static_cast<double>(ps) / 1000.0);
    }
    // Random words for even seeds; sparse toggles (about one flip in
    // eight) for odd ones, so equal consecutive stimuli are common.
    Steps steps(121);
    steps[0] =
        oisa::testing::randomWords(rng, static_cast<std::size_t>(inputs));
    for (std::size_t t = 1; t < steps.size(); ++t) {
      steps[t] = steps[t - 1];
      for (auto& w : steps[t]) {
        w = seed % 2 == 0 ? rng() : w ^ (rng() & rng() & rng());
      }
    }
    // Every third seed clamps a primary input and a gate net.
    std::vector<NetClamp> clamps;
    if (seed % 3 == 0) {
      clamps.push_back(
          {nl.primaryInputs()[rng() % nl.primaryInputs().size()].value,
           rng() % 2 == 0});
      clamps.push_back({static_cast<std::uint32_t>(
                            nl.primaryInputs().size() + rng() % nl.gateCount()),
                        rng() % 2 == 0});
    }
    const double periodNs =
        static_cast<double>(3 + rng() % 120) / 1000.0;
    int history = 0;
    expectMatchesWheel(nl, delays, periodNs, steps, clamps, history);
    if (::testing::Test::HasFatalFailure()) return;
    deepest = std::max(deepest, history);
  }
  EXPECT_GE(deepest, 4) << "no seed reached deep history";
}

TEST(UnrollTest, PaperDesignsMatchTheWheelAcrossCprAndWorkloads) {
  int deepest = 0;
  std::uint64_t seed = 100;
  for (const SynthesizedDesign& design : paperDesigns()) {
    for (const double cpr : {5.0, 10.0, 15.0, 30.0, 50.0, 75.0}) {
      for (const char* kind : {"uniform", "random-walk", "sparse-toggle"}) {
        SCOPED_TRACE(design.config.name() + " @ " + std::to_string(cpr) +
                     "% CPR, " + kind);
        const Steps steps =
            adderSteps(kind, design.config.width, ++seed, 80);
        int history = 0;
        expectMatchesWheel(design.netlist, design.delays,
                           oisa::experiments::overclockedPeriodNs(0.3, cpr),
                           steps, {}, history);
        if (::testing::Test::HasFatalFailure()) return;
        deepest = std::max(deepest, history);
      }
    }
  }
  EXPECT_GE(deepest, 4);
}

TEST(UnrollTest, StemAndInputClampsMatchInjectedFaults) {
  // Sampled stem classes of one design, plus stuck primary inputs (an
  // operand bit and the carry-in), at a shallow and a deep overclock.
  const SynthesizedDesign& design = paperDesigns()[5];
  const auto compiled = CompiledNetlist::compile(design.netlist);
  const oisa::fault::FaultUniverse universe(compiled);
  std::vector<oisa::fault::Fault> stems;
  for (const auto& f : universe.collapsed()) {
    if (f.isStem()) stems.push_back(f);
  }
  std::vector<std::vector<NetClamp>> cases;
  for (const auto& f : oisa::fault::selectTimedFaults(stems, 6)) {
    cases.push_back({{f.net, f.stuck == oisa::fault::StuckAt::SA1}});
  }
  const auto inputs = compiled->inputNets();
  cases.push_back({{inputs[5], false}});
  cases.push_back({{inputs.back(), true}});
  cases.push_back({{inputs[3], true}, {stems[stems.size() / 2].net, false}});
  std::uint64_t seed = 500;
  for (const double cpr : {15.0, 60.0}) {
    for (const auto& clamps : cases) {
      SCOPED_TRACE("net " + std::to_string(clamps[0].net) + " @ " +
                   std::to_string(cpr) + "% CPR");
      int history = 0;
      expectMatchesWheel(
          design.netlist, design.delays,
          oisa::experiments::overclockedPeriodNs(0.3, cpr),
          adderSteps("uniform", design.config.width, ++seed, 100), clamps,
          history);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

SynthesizedDesign width64Design() {
  oisa::circuits::SynthesisOptions options;
  options.relaxSlack = true;
  return oisa::circuits::synthesize(oisa::core::makeIsa(8, 2, 1, 4, 64),
                                    oisa::timing::CellLibrary::generic65(),
                                    options);
}

TEST(UnrollTest, Width64DesignMatchesTheWheel) {
  const SynthesizedDesign design = width64Design();
  std::uint64_t seed = 700;
  for (const double fraction : {0.6, 0.45, 0.3}) {
    SCOPED_TRACE("period " + std::to_string(fraction) + " x critical");
    int history = 0;
    expectMatchesWheel(design.netlist, design.delays,
                       design.criticalDelayNs * fraction,
                       adderSteps("random-walk", 64, ++seed, 100), {},
                       history);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_GE(history, 2);
  }
}

/// Streams `cycles` records through a 64-stream collector (with `defect`
/// held) and asserts record r's silver equals what lane r mod 64 of the
/// wheel latches at its cycle r / 64, lane l replaying draws l, 64 + l, ...
void expectCollectorMatchesWheel(
    const SynthesizedDesign& design, double periodNs, std::uint64_t cycles,
    std::optional<oisa::fault::Fault> defect) {
  constexpr std::size_t kStreams = 64;
  const int width = design.config.width;
  const auto w = static_cast<std::size_t>(width);
  auto workload = oisa::experiments::makeWorkload("uniform", width, 77);
  std::vector<Stimulus> draws(kStreams + cycles);
  for (auto& d : draws) d = workload->next();

  oisa::testing::ReplayWorkload replay(draws);
  oisa::experiments::TraceCollector collector(design, periodNs, 0, kStreams,
                                              defect);
  const auto trace = collector.collect(replay, cycles);

  oisa::timing::LaneClockedSampler wheel(
      CompiledNetlist::compile(design.netlist), design.delays, periodNs);
  if (defect) oisa::fault::injectStuckAt(wheel.simulator(), *defect);
  std::vector<std::uint64_t> words(2 * w + 1);
  std::vector<std::uint64_t> latched;
  for (std::size_t step = 0; step * kStreams < draws.size(); ++step) {
    oisa::experiments::packStimulusBlock(
        std::span(draws).subspan(step * kStreams, kStreams), width, words);
    if (step == 0) {
      wheel.initialize(words);
      continue;
    }
    wheel.stepInto(words, latched);
    for (std::size_t l = 0; l < kStreams; ++l) {
      const auto& rec = trace[(step - 1) * kStreams + l];
      std::uint64_t sum = 0;
      for (std::size_t o = 0; o < w; ++o) {
        sum |= ((latched[o] >> l) & 1u) << o;
      }
      ASSERT_EQ(rec.silver, sum) << "cycle " << step - 1 << " stream " << l;
      ASSERT_EQ(rec.silverCout, ((latched[w] >> l) & 1u) != 0)
          << "cycle " << step - 1 << " stream " << l;
    }
  }
}

TEST(UnrollTest, SixtyFourStreamCollectorMatchesOneStreamPerLane) {
  // Runs across several windows (64 x 64 = 4096 records per window at the
  // reference width), healthy and with a stem defect held.
  const SynthesizedDesign& design = paperDesigns()[0];
  const double period = oisa::experiments::overclockedPeriodNs(0.3, 15.0);
  expectCollectorMatchesWheel(design, period, 64 * 150, std::nullopt);
  const oisa::fault::FaultUniverse universe(
      CompiledNetlist::compile(design.netlist));
  std::vector<oisa::fault::Fault> stems;
  for (const auto& f : universe.collapsed()) {
    if (f.isStem()) stems.push_back(f);
  }
  expectCollectorMatchesWheel(design, period * 0.5, 64 * 150,
                              stems[stems.size() / 3]);
  expectCollectorMatchesWheel(width64Design(), period, 64 * 40, std::nullopt);
}

TEST(UnrollTest, RejectsInputsItCannotUnroll) {
  const auto expectInvalid = [](const std::function<void()>& unroll,
                                const std::string& fragment) {
    try {
      unroll();
      ADD_FAILURE() << "accepted; expected: " << fragment;
    } catch (const oisa::core::StatusError& e) {
      EXPECT_EQ(e.code(), oisa::core::StatusCode::InvalidInput);
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  const Netlist nl =
      oisa::netlist::readBenchString(oisa::testing::kC17, "c17").valueOrThrow();
  const DelayAnnotation delays(nl, oisa::timing::CellLibrary::generic65());
  const auto compiled = CompiledNetlist::compile(nl);
  expectInvalid(
      [&] { (void)oisa::timing::unrollSampled(*compiled, delays, 0); },
      "every 0 ps");
  const NetClamp outside{static_cast<std::uint32_t>(nl.netCount()), true};
  expectInvalid(
      [&] {
        (void)oisa::timing::unrollSampled(*compiled, delays, 100,
                                          std::span(&outside, 1));
      },
      "to clamp");
  const Netlist other = oisa::netlist::readBenchString(
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "inv").valueOrThrow();
  const DelayAnnotation otherDelays(other,
                                    oisa::timing::CellLibrary::generic65());
  expectInvalid(
      [&] { (void)oisa::timing::unrollSampled(*compiled, otherDelays, 100); },
      "annotation");
}

}  // namespace

// Shared differential-testing harness.
//
// One home for the seeded generators the engine test suites previously
// carried as private copies (random combinational DAGs, random pattern
// words, correlated random datasets, the unit-delay cell library, the
// ISCAS-85 c17 benchmark) plus the lane bit-exactness helpers that prove
// a wide dispatched engine equivalent to the 64-lane reference by slicing
// its blocks into 64-bit sub-words.
//
// Every generator takes an explicit seed (or a caller-owned seeded rng)
// and every differential entry point should sit under OISA_TRACE_SEED so
// a failure report names the exact seed that reproduces it.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "circuits/synthesis.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"
#include "fault/fault_model.h"
#include "fault/ppsfp_dispatch.h"
#include "ml/dataset.h"
#include "netlist/compiled_netlist.h"
#include "netlist/gate.h"
#include "netlist/lane_width.h"
#include "netlist/netlist.h"
#include "predict/trace.h"
#include "reference/scalar_collector.h"
#include "timing/cell_library.h"

namespace oisa::testing {

/// Failure-reproduction message for OISA_TRACE_SEED.
inline std::string seedMessage(std::uint64_t seed) {
  return "differential_harness seed = " + std::to_string(seed) +
         " (re-run the generators with this seed to reproduce)";
}

/// ISCAS-85 c17 (NAND-only toy benchmark), in ISCAS bench format.
inline constexpr const char* kC17 = R"(
# ISCAS-85 c17 (NAND-only toy benchmark)
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

/// Unit-delay library: every cell 1 ns / zero slope, constants free.
inline timing::CellLibrary unitLibrary() {
  timing::CellLibrary lib;
  for (const netlist::GateKind kind : netlist::allGateKinds()) {
    lib.cell(kind) = timing::CellTiming{1.0, 0.0, 1.0};
  }
  lib.cell(netlist::GateKind::Const0) = timing::CellTiming{0.0, 0.0, 0.0};
  lib.cell(netlist::GateKind::Const1) = timing::CellTiming{0.0, 0.0, 0.0};
  return lib;
}

/// Random combinational DAG (acyclic by construction): gates draw their
/// inputs from everything built so far, outputs tap random gate nets.
/// Identical construction (and rng consumption) to the generators the
/// engine suites used before this header existed.
inline netlist::Netlist randomNetlist(std::mt19937_64& rng, int inputCount,
                                      int gateCount, int outputCount = 8) {
  netlist::Netlist nl("rand");
  std::vector<netlist::NetId> nets;
  for (int i = 0; i < inputCount; ++i) {
    nets.push_back(nl.input("i" + std::to_string(i)));
  }
  std::vector<netlist::GateKind> kinds;
  for (const netlist::GateKind kind : netlist::allGateKinds()) {
    if (netlist::gateArity(kind) > 0) kinds.push_back(kind);
  }
  std::vector<netlist::NetId> gateOuts;
  for (int g = 0; g < gateCount; ++g) {
    const netlist::GateKind kind = kinds[rng() % kinds.size()];
    std::vector<netlist::NetId> ins;
    for (int a = 0; a < netlist::gateArity(kind); ++a) {
      ins.push_back(nets[rng() % nets.size()]);
    }
    const netlist::NetId out = nl.gate(kind, ins);
    nets.push_back(out);
    gateOuts.push_back(out);
  }
  for (int o = 0; o < outputCount; ++o) {
    nl.output("o" + std::to_string(o), gateOuts[rng() % gateOuts.size()]);
  }
  nl.validate();
  return nl;
}

/// `count` fresh 64-bit pattern words.
inline std::vector<std::uint64_t> randomWords(std::mt19937_64& rng,
                                              std::size_t count) {
  std::vector<std::uint64_t> words(count);
  for (auto& w : words) w = rng();
  return words;
}

/// Random binary dataset with correlated labels (majority of the first
/// three features, with 10% noise) so trees grow real structure instead
/// of collapsing to a leaf.
inline ml::Dataset randomDataset(std::size_t rows, std::size_t features,
                                 std::uint64_t seed) {
  ml::Dataset data(features);
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> row(features);
  for (std::size_t i = 0; i < rows; ++i) {
    for (auto& v : row) v = static_cast<std::uint8_t>(rng() & 1);
    bool label = row[0] + row[1 % features] + row[2 % features] >= 2;
    if ((rng() % 100) < 10) label = !label;
    data.addRow(row, label);
  }
  return data;
}

// ---------------------------------------------------------------------------
// Lane bit-exactness: a W = 64K lane engine is correct iff slicing each of
// its blocks into K 64-bit sub-words reproduces K independent runs of the
// 64-lane reference on the same stimuli. The helpers below assert exactly
// that, sub-word by sub-word, over caller-seeded random stimuli.
// ---------------------------------------------------------------------------

/// Functional engine: every net word and every output word of `wide`
/// must slice to the reference's planes for the same per-sub-block
/// stimuli.
inline void expectLaneBitExact(netlist::AnyBatchEvaluator& reference,
                               netlist::AnyBatchEvaluator& wide,
                               std::mt19937_64& rng, int rounds = 4) {
  ASSERT_EQ(reference.wordsPerNet(), 1u)
      << "pass the 64-lane reference first";
  const std::size_t kW = wide.wordsPerNet();
  const std::size_t inputs = wide.compiled()->inputNets().size();
  const std::size_t outputs = wide.compiled()->outputNets().size();
  const std::size_t nets = wide.compiled()->netCount();

  std::vector<std::uint64_t> wideIn(inputs * kW);
  std::vector<std::uint64_t> wideVals;
  std::vector<std::uint64_t> wideOut(outputs * kW);
  std::vector<std::uint64_t> refIn(inputs);
  std::vector<std::uint64_t> refVals;
  std::vector<std::uint64_t> refOut(outputs);
  for (int round = 0; round < rounds; ++round) {
    for (auto& w : wideIn) w = rng();
    wide.evaluateInto(wideIn, wideVals);
    wide.evaluateOutputsInto(wideIn, wideOut);
    for (std::size_t j = 0; j < kW; ++j) {
      for (std::size_t i = 0; i < inputs; ++i) refIn[i] = wideIn[i * kW + j];
      reference.evaluateInto(refIn, refVals);
      reference.evaluateOutputsInto(refIn, refOut);
      for (std::size_t n = 0; n < nets; ++n) {
        ASSERT_EQ(wideVals[n * kW + j], refVals[n])
            << "round " << round << " sub-word " << j << " net " << n;
      }
      for (std::size_t o = 0; o < outputs; ++o) {
        ASSERT_EQ(wideOut[o * kW + j], refOut[o])
            << "round " << round << " sub-word " << j << " output " << o;
      }
    }
  }
}

/// PPSFP engine: detection words of `wide` must slice to the reference's
/// detection word for every fault, including partially filled blocks
/// (lanes past the pattern count must stay silent at any width).
inline void expectLaneBitExact(fault::AnyPpsfpEngine& reference,
                               fault::AnyPpsfpEngine& wide,
                               std::span<const fault::Fault> faults,
                               std::mt19937_64& rng, int rounds = 2) {
  ASSERT_EQ(reference.wordsPerNet(), 1u)
      << "pass the 64-lane reference first";
  const std::size_t kW = wide.wordsPerNet();
  const std::size_t inputs = wide.compiled()->inputNets().size();

  std::vector<std::uint64_t> refWords(inputs);
  std::vector<std::uint64_t> det(kW);
  std::vector<std::uint64_t> refDet(1);
  for (int round = 0; round < rounds; ++round) {
    const auto wideWords = randomWords(rng, inputs * kW);
    // Full block first, then a partial one (tail sub-words masked).
    const std::size_t count =
        round % 2 == 0 ? wide.lanes()
                       : 1 + static_cast<std::size_t>(
                                 rng() % (wide.lanes() - 1));
    wide.loadPatterns(wideWords, count);
    std::vector<std::vector<std::uint64_t>> wideDet(faults.size());
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      wide.detectLanesInto(faults[fi], det);
      wideDet[fi] = det;
    }
    for (std::size_t j = 0; j < kW; ++j) {
      const std::size_t lo = 64 * j;
      const std::size_t refCount =
          count > lo ? std::min<std::size_t>(count - lo, 64) : 0;
      if (refCount == 0) {
        for (std::size_t fi = 0; fi < faults.size(); ++fi) {
          ASSERT_EQ(wideDet[fi][j], 0u)
              << "round " << round << " empty sub-word " << j << " fault "
              << fi;
        }
        continue;
      }
      for (std::size_t i = 0; i < inputs; ++i) {
        refWords[i] = wideWords[i * kW + j];
      }
      reference.loadPatterns(refWords, refCount);
      for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        reference.detectLanesInto(faults[fi], refDet);
        ASSERT_EQ(wideDet[fi][j], refDet[0])
            << "round " << round << " sub-word " << j << " fault " << fi;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Trace collector against the sequential reference collector.
// ---------------------------------------------------------------------------

/// Record-for-record equality of every TraceRecord field.
inline void expectTracesEqual(const predict::Trace& lane,
                              const predict::Trace& scalar) {
  ASSERT_EQ(lane.size(), scalar.size());
  for (std::size_t t = 0; t < lane.size(); ++t) {
    SCOPED_TRACE("record " + std::to_string(t));
    ASSERT_EQ(lane[t].a, scalar[t].a);
    ASSERT_EQ(lane[t].b, scalar[t].b);
    ASSERT_EQ(lane[t].carryIn, scalar[t].carryIn);
    ASSERT_EQ(lane[t].diamond, scalar[t].diamond);
    ASSERT_EQ(lane[t].diamondCout, scalar[t].diamondCout);
    ASSERT_EQ(lane[t].gold, scalar[t].gold);
    ASSERT_EQ(lane[t].goldCout, scalar[t].goldCout);
    ASSERT_EQ(lane[t].silver, scalar[t].silver);
    ASSERT_EQ(lane[t].silverCout, scalar[t].silverCout);
  }
}

/// Replays a fixed draw sequence.
class ReplayWorkload final : public experiments::Workload {
 public:
  explicit ReplayWorkload(std::vector<experiments::Stimulus> draws)
      : draws_(std::move(draws)) {}
  [[nodiscard]] experiments::Stimulus next() override {
    return draws_.at(next_++);
  }
  [[nodiscard]] std::string name() const override { return "replay"; }

 private:
  std::vector<experiments::Stimulus> draws_;
  std::size_t next_ = 0;
};

/// Streams `cycles` records of the `kind` workload (seeded `seed`) through
/// `collector`, built with `streams` interleaved streams, and asserts that
/// stream l's records (l, S + l, 2S + l, ...) equal the sequential
/// reference collector over draws l, S + l, 2S + l, ... — its settle
/// vector first.
inline void expectStreamsMatchScalar(
    experiments::TraceCollector& collector,
    const circuits::SynthesizedDesign& design, std::size_t streams,
    const std::string& kind, std::uint64_t seed, std::uint64_t cycles) {
  const auto workload =
      experiments::makeWorkload(kind, design.config.width, seed);
  std::vector<experiments::Stimulus> draws(streams + cycles);
  for (auto& d : draws) d = workload->next();
  ReplayWorkload replay(draws);
  predict::Trace streamed;
  collector.stream(replay, cycles,
                   [&](std::span<const predict::TraceRecord> window) {
                     streamed.insert(streamed.end(), window.begin(),
                                     window.end());
                   });
  ASSERT_EQ(streamed.size(), cycles);
  for (std::size_t l = 0; l < streams; ++l) {
    SCOPED_TRACE("stream " + std::to_string(l));
    std::vector<experiments::Stimulus> own;
    predict::Trace lane;
    for (std::size_t k = l; k < draws.size(); k += streams) {
      own.push_back(draws[k]);
      if (k >= streams) lane.push_back(streamed[k - streams]);
    }
    ReplayWorkload ownWorkload(std::move(own));
    expectTracesEqual(
        lane, experiments::collectTraceScalar(design, collector.periodNs(),
                                              ownWorkload, lane.size()));
  }
}

}  // namespace oisa::testing

/// Gtest trace naming the harness seed a failing differential run
/// reproduces with.
#define OISA_TRACE_SEED(seed) SCOPED_TRACE(::oisa::testing::seedMessage(seed))

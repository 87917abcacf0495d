// Raw data-plane throughput of the LaneBlock<W> batch evaluator across
// every variant this build + CPU can run: the 64-lane uint64 reference
// against the 256-lane (AVX2) and 512-lane (AVX-512) variants the runtime
// dispatcher (netlist/lane_width.h) builds. The acceptance gate for the
// SIMD substrate is >= 2x gate-evaluation throughput at 256-avx2 over
// W=64 (--min-speedup=2 in CI); 512-avx512 is reported alongside.
//
// The stimulus case times the other vector kernels (netlist/bitops.h):
// uniform stimuli drawn by the bulk MT19937-64 engine and packed
// lane-major by packStimuli, engine block by engine block, as the fault
// scan's coverage source does, against the path they replaced: two
// std::mt19937_64 draws per stimulus and one 64-stimulus packing through
// the portable transpose plus a scatter per sub-block.
// --min-stimulus-speedup gates the path the CPU picks against the old
// one. Beside it, every kernel variant's draws and transposes are timed
// alone, in ns per stimulus (one ungated run each); the gates use timePairs.
//
// Self-checking: before any timing is reported, every wide variant must
// reproduce the 64-lane reference bit-for-bit on the same stimulus —
// sub-word j of a wide net is lanes [64j, 64j + 64), so slicing at a
// stride is the whole comparison (tests/lane_width_test.cpp carries the
// exhaustive differential suite; this is the smoke version) — and the
// stimulus path the CPU picks must produce the old path's words over
// 2^20 stimuli.
//
// Usage: micro_simd [--min-speedup=X] [--min-stimulus-speedup=X]
//                   [--json=path] [--threads=N]
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <random>
#include <span>
#include <vector>

#include "circuits/synthesis.h"
#include "core/isa_config.h"
#include "experiments/cli.h"
#include "experiments/workload.h"
#include "netlist/bitops.h"
#include "netlist/compiled_netlist.h"
#include "netlist/lane_width.h"
#include "timing/cell_library.h"

#include "bench_common.h"

namespace {

constexpr std::uint64_t kIters = 5000;  // block evaluations per timed run
constexpr std::uint64_t kCheckIters = 256;
constexpr std::size_t kPlanes = 64;
constexpr std::size_t kPairs = 25;
constexpr std::uint64_t kStimuli = std::uint64_t{1} << 20;  // per timed run
constexpr std::uint64_t kStimulusSeed = 42;
constexpr std::size_t kStimulusPairs = 11;

// A pool of pre-drawn stimulus planes so the timed loop measures gate
// evaluation, not RNG. Plane p for a k-words-per-net variant is the
// 1-word plane repeated k times per input: every 64-lane sub-block of the
// wide run carries the same stimulus as reference iteration p, which is
// what makes the checksum comparable across widths.
std::vector<std::uint64_t> stimulusPool(std::size_t inputCount,
                                        std::size_t planes,
                                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> pool(inputCount * planes);
  for (auto& w : pool) w = rng();
  return pool;
}

namespace ex = oisa::experiments;
namespace nl = oisa::netlist;
using ex::Stimulus;

std::uint64_t widthMask(int width) {
  return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

/// One engine block of the stimulus path before the bulk engine and the
/// strided packer: two std::mt19937_64 draws per stimulus, then each
/// 64-stimulus sub-block packed as packStimulusBlock packed it (a and b
/// share one transpose up to 32 bits; spare lanes replicate stimulus 0
/// with carry-in low), through the portable transpose, and scattered to
/// words[i * stride + j].
void oldStimulusBlock(std::mt19937_64& rng, int width,
                      std::span<Stimulus> stims,
                      std::span<std::uint64_t> words, std::size_t stride) {
  static const nl::Transpose64Kernel transpose =
      nl::transpose64Kernel(nl::LaneArch::Portable);
  const std::uint64_t mask = widthMask(width);
  for (Stimulus& s : stims) {
    s.a = rng() & mask;
    s.b = rng() & mask;
    s.carryIn = false;
  }
  const auto w = static_cast<std::size_t>(width);
  const bool shared = w <= 32;
  for (std::size_t j = 0; j * 64 < stims.size(); ++j) {
    const auto sub =
        stims.subspan(64 * j, std::min<std::size_t>(64, stims.size() - 64 * j));
    std::array<std::uint64_t, 64> aM{};
    std::array<std::uint64_t, 64> bM{};
    std::uint64_t cinWord = 0;
    for (std::size_t lane = 0; lane < 64; ++lane) {
      const Stimulus& s = sub[lane < sub.size() ? lane : 0];
      if (shared) {
        aM[lane] = (s.a & mask) | (s.b & mask) << 32;
      } else {
        aM[lane] = s.a;
        bM[lane] = s.b;
      }
      if (lane < sub.size() && s.carryIn) {
        cinWord |= std::uint64_t{1} << lane;
      }
    }
    transpose(aM.data());
    if (!shared) transpose(bM.data());
    const std::uint64_t* bRows = shared ? aM.data() + 32 : bM.data();
    for (std::size_t i = 0; i < w; ++i) {
      words[i * stride + j] = aM[i];
      words[(w + i) * stride + j] = bRows[i];
    }
    words[2 * w * stride + j] = cinWord;
  }
}

/// Runs `block(stims, words, stride)` over `count` stimuli in blocks of
/// `lanes` (a multiple of 64); `check` sees every block's words.
template <class Block, class Check>
void runStimulusPath(int width, std::uint64_t count, std::size_t lanes,
                     Block&& block, Check&& check) {
  const std::size_t stride = lanes / 64;
  std::vector<Stimulus> stims(lanes);
  std::vector<std::uint64_t> words((2 * static_cast<std::size_t>(width) + 1) *
                                   stride);
  for (std::uint64_t done = 0; done < count; done += lanes) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(lanes, count - done));
    block(std::span(stims.data(), n), std::span(words), stride);
    check(done, std::span<const std::uint64_t>(words));
  }
}

/// kIters block evaluations of `eval`, each on the next pool plane copied
/// into every 64-lane sub-block; returns the sum of every output's
/// sub-word 0, which sees the reference stimulus at any width.
std::uint64_t evaluateBlocks(const nl::AnyBatchEvaluator& eval,
                             const std::vector<std::uint64_t>& pool,
                             std::size_t inputs) {
  const std::size_t kW = eval.wordsPerNet();
  std::vector<std::uint64_t> wideIn(inputs * kW);
  std::vector<std::uint64_t> out;
  std::uint64_t checksum = 0;
  for (std::uint64_t it = 0; it < kIters; ++it) {
    const std::uint64_t* plane = pool.data() + (it % kPlanes) * inputs;
    for (std::size_t i = 0; i < inputs; ++i) {
      for (std::size_t j = 0; j < kW; ++j) wideIn[i * kW + j] = plane[i];
    }
    eval.evaluateOutputsInto(wideIn, out);
    for (std::size_t o = 0; o < out.size(); o += kW) checksum += out[o];
  }
  return checksum;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oisa;
  return experiments::runGuarded([&] {
    const experiments::ArgParser args(argc, argv);
    const bench::GateOptions gate = bench::gateOptions(args);
    const double minStimulusSpeedup =
        args.getDouble("min-stimulus-speedup", 0.0);
    args.rejectUnread();

    circuits::SynthesisOptions synth;
    synth.relaxSlack = true;
    const auto design = circuits::synthesize(
        core::makeIsa(8, 2, 1, 4), timing::CellLibrary::generic65(), synth);
    const auto compiled = netlist::CompiledNetlist::compile(design.netlist);
    const std::size_t inputs = compiled->inputNets().size();
    const std::size_t gates = design.netlist.gateCount();
    const auto pool = stimulusPool(inputs, kPlanes, 99);

    const netlist::LaneSelection reference{};
    const auto selections = netlist::availableLaneSelections();
    std::cout << "design:  " << design.config.name() << "  (" << gates
              << " gates, " << inputs << " inputs)\niters:   " << kIters
              << " block evaluations per run, " << kPairs
              << " pairs\nvariants:";
    for (const auto sel : selections) {
      std::cout << ' ' << netlist::laneSelectionName(sel);
    }
    std::cout << "\n\n";

    // Correctness gate: every variant, same stimulus, identical output
    // words in every 64-lane sub-block.
    const auto refEval = netlist::makeBatchEvaluator(compiled, reference);
    {
      std::vector<std::uint64_t> refOut;
      std::vector<std::uint64_t> wideOut;
      std::vector<std::uint64_t> wideIn;
      for (const auto sel : selections) {
        const auto eval = netlist::makeBatchEvaluator(compiled, sel);
        const std::size_t kW = eval->wordsPerNet();
        for (std::uint64_t it = 0; it < kCheckIters; ++it) {
          const std::uint64_t* plane = pool.data() + (it % kPlanes) * inputs;
          refEval->evaluateOutputsInto({plane, inputs}, refOut);
          wideIn.assign(inputs * kW, 0);
          for (std::size_t i = 0; i < inputs; ++i) {
            for (std::size_t j = 0; j < kW; ++j) {
              wideIn[i * kW + j] = plane[i];
            }
          }
          eval->evaluateOutputsInto(wideIn, wideOut);
          for (std::size_t o = 0; o < refOut.size(); ++o) {
            for (std::size_t j = 0; j < kW; ++j) {
              if (wideOut[o * kW + j] != refOut[o]) {
                std::cerr << "MISMATCH: " << netlist::laneSelectionName(sel)
                          << " output " << o << " sub-word " << j
                          << " diverges from the 64-lane reference at "
                          << "iteration " << it << "\n";
                return EXIT_FAILURE;
              }
            }
          }
        }
      }
    }

    // The two stimulus paths, each a fresh run over kStimuli stimuli in
    // engine blocks; `check` sees every block's words.
    const int width = design.config.width;
    const std::size_t stimulusLanes = netlist::defaultLaneSelection().lanes();
    const auto runOld = [&](auto&& check) {
      std::mt19937_64 rng(kStimulusSeed);
      runStimulusPath(
          width, kStimuli, stimulusLanes,
          [&](std::span<Stimulus> stims, std::span<std::uint64_t> words,
              std::size_t stride) {
            oldStimulusBlock(rng, width, stims, words, stride);
          },
          check);
    };
    const auto runShipped = [&](auto&& check) {
      ex::UniformWorkload workload(width, kStimulusSeed);
      runStimulusPath(
          width, kStimuli, stimulusLanes,
          [&](std::span<Stimulus> stims, std::span<std::uint64_t> words,
              std::size_t stride) {
            workload.fill(stims);
            ex::packStimuli(stims, width, words, stride);
          },
          check);
    };

    // Correctness gate: the stimulus path the CPU picks produces the old
    // path's words, block for block.
    {
      std::vector<std::vector<std::uint64_t>> oldWords;
      runOld([&](std::uint64_t, std::span<const std::uint64_t> w) {
        oldWords.emplace_back(w.begin(), w.end());
      });
      std::size_t mismatches = 0;
      std::uint64_t firstBad = 0;
      std::size_t b = 0;
      runShipped([&](std::uint64_t done, std::span<const std::uint64_t> w) {
        if (!std::equal(w.begin(), w.end(), oldWords[b++].begin())) {
          if (mismatches++ == 0) firstBad = done;
        }
      });
      if (mismatches != 0) {
        std::cerr << "MISMATCH: the stimulus path diverges from the old "
                  << "path in " << mismatches << " block(s), first at "
                  << "stimulus " << firstBad << "\n";
        return EXIT_FAILURE;
      }
    }

    // Timed runs: each wider variant against the 64-lane reference, both
    // sides kIters block evaluations. A wide block carries lanes/64 times
    // the patterns, so its gate-evaluation throughput ratio is the median
    // pair ratio of seconds times that lane ratio.
    bench::BenchJson json("micro_simd");
    json.add("design", design.config.name())
        .add("gates", static_cast<std::uint64_t>(gates))
        .add("iters", kIters)
        .add("stimulus_pairs", static_cast<std::uint64_t>(kStimulusPairs));
    const auto gateEvalsPerSec = [&](std::size_t lanes, double seconds) {
      return static_cast<double>(kIters) * static_cast<double>(gates) *
             static_cast<double>(lanes) / seconds;
    };
    std::uint64_t refSum = 0;
    const auto runReference = [&] {
      refSum = evaluateBlocks(*refEval, pool, inputs);
    };
    double refRate = 0.0;
    const auto reportReference = [&](double seconds) {
      refRate = gateEvalsPerSec(64, seconds);
      std::cout << "64:  " << seconds << " s  (" << refRate / 1e9
                << " Ggate-evals/s)\n";
      json.add("geps_64", refRate);
    };
    double speedup = 0.0;
    for (const auto sel : selections) {
      if (sel == reference) continue;
      const auto eval = netlist::makeBatchEvaluator(compiled, sel);
      std::uint64_t wideSum = 0;
      const bench::PairTiming timing = bench::timePairs(
          kPairs, runReference,
          [&] { wideSum = evaluateBlocks(*eval, pool, inputs); });
      const std::string name = netlist::laneSelectionName(sel);
      if (wideSum != refSum) {
        std::cerr << "MISMATCH: timed " << name
                  << " checksum diverges from the reference\n";
        return EXIT_FAILURE;
      }
      if (refRate == 0.0) reportReference(timing.referenceSec);
      const double rate = gateEvalsPerSec(eval->lanes(), timing.contenderSec);
      const double ratio =
          timing.speedup * static_cast<double>(eval->lanes()) / 64.0;
      std::cout << name << ":  " << timing.contenderSec << " s  ("
                << rate / 1e9 << " Ggate-evals/s, " << ratio
                << "x vs 64, median pair ratio)\n";
      json.add("geps_" + name, rate);
      if (sel.arch == netlist::LaneArch::Avx2) speedup = ratio;
    }
    // No wider variant to pair it with: time the reference alone.
    if (refRate == 0.0) reportReference(bench::seconds(runReference));
    json.add("ref_gate_evals_per_sec", refRate);

    // Stimulus timing: the old path against the CPU-picked one, in ns per
    // stimulus. A variant's kernels are its engine's fill of two words
    // per stimulus and the transposes that packing takes (one per 64
    // stimuli up to 32 bits, two above), each timed in one ungated run.
    std::cout << "\nstimulus path: " << kStimuli << " uniform " << width
              << "-bit stimuli in blocks of " << stimulusLanes << ", "
              << kStimulusPairs << " pairs\n";
    const auto noCheck = [](std::uint64_t, std::span<const std::uint64_t>) {};
    const auto perStimulus = [&](double seconds) {
      return seconds * 1e9 / static_cast<double>(kStimuli);
    };
    const bench::PairTiming stimulus = bench::timePairs(
        kStimulusPairs, [&] { runOld(noCheck); },
        [&] { runShipped(noCheck); });
    std::cout << "old (std::mt19937_64, per-64 portable packing): "
              << perStimulus(stimulus.referenceSec)
              << " ns/stimulus\nCPU-picked path: "
              << perStimulus(stimulus.contenderSec) << " ns/stimulus ("
              << stimulus.speedup << "x vs old, median pair ratio)\n";
    json.add("stimulus_ns_old", perStimulus(stimulus.referenceSec))
        .add("stimulus_ns", perStimulus(stimulus.contenderSec))
        .add("stimulus_speedup", stimulus.speedup);
    const std::uint64_t transposes = (kStimuli / 64) * (width <= 32 ? 1 : 2);
    for (const auto sel : selections) {
      std::vector<std::uint64_t> draws(2 * stimulusLanes);
      const auto transpose = netlist::transpose64Kernel(sel.arch);
      std::array<std::uint64_t, 64> rows{};
      const double drawNs = perStimulus(bench::seconds([&] {
        netlist::BulkMt19937_64 rng(kStimulusSeed, sel.arch);
        for (std::uint64_t done = 0; done < kStimuli; done += stimulusLanes) {
          rng.fill(draws);
        }
      }));
      const double transposeNs = perStimulus(bench::seconds([&] {
        std::copy_n(draws.begin(), rows.size(), rows.begin());
        for (std::uint64_t t = 0; t < transposes; ++t) transpose(rows.data());
      }));
      const std::string name = netlist::laneSelectionName(sel);
      std::cout << "kernels " << name << ": draws " << drawNs
                << " + transposes " << transposeNs << " ns/stimulus\n";
      json.add("draw_ns_" + name, drawNs)
          .add("transpose_ns_" + name, transposeNs);
    }
    if (minStimulusSpeedup > 0.0 && stimulus.speedup < minStimulusSpeedup) {
      std::cerr << "FAIL: stimulus speedup " << stimulus.speedup
                << "x below required " << minStimulusSpeedup << "x\n";
      return EXIT_FAILURE;
    }
    // Headline + CI gate: the 256-lane vector variant against the 64-lane
    // reference. Without AVX2 in the build/CPU there is nothing to gate —
    // the speedup reads 0.
    return bench::finishSpeedupBench(json, gate, speedup, kPairs);
  });
}

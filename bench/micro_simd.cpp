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
// alone, in ns per stimulus.
//
// Self-checking: before any timing is reported, every wide variant must
// reproduce the 64-lane reference bit-for-bit on the same stimulus —
// sub-word j of a wide net is lanes [64j, 64j + 64), so slicing at a
// stride is the whole comparison (tests/lane_width_test.cpp carries the
// exhaustive differential suite; this is the smoke version) — and the
// stimulus path the CPU picks must produce the old path's words over
// 2^20 stimuli.
//
// Usage: micro_simd [--iters=N] [--check-iters=N] [--min-speedup=X]
//                   [--min-stimulus-speedup=X] [--json=path]
#include <algorithm>
#include <array>
#include <chrono>
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

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

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
/// `lanes` (a multiple of 64) and returns the seconds taken; `check` sees
/// every block's words.
template <class Block, class Check>
double runStimulusPath(int width, std::uint64_t count, std::size_t lanes,
                       Block&& block, Check&& check) {
  const std::size_t stride = lanes / 64;
  std::vector<Stimulus> stims(lanes);
  std::vector<std::uint64_t> words((2 * static_cast<std::size_t>(width) + 1) *
                                   stride);
  const auto start = Clock::now();
  for (std::uint64_t done = 0; done < count; done += lanes) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(lanes, count - done));
    block(std::span(stims.data(), n), std::span(words), stride);
    check(done, std::span<const std::uint64_t>(words));
  }
  return secondsSince(start);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);
  const std::uint64_t iters = args.getU64("iters", 20000);
  const std::uint64_t checkIters =
      args.getU64("check-iters", std::min<std::uint64_t>(iters, 256));
  const double minSpeedup = args.getDouble("min-speedup", 0.0);
  const double minStimulusSpeedup =
      args.getDouble("min-stimulus-speedup", 0.0);
  constexpr std::size_t kPlanes = 64;
  constexpr std::uint64_t kStimuli = std::uint64_t{1} << 20;
  constexpr std::uint64_t kStimulusSeed = 42;
  constexpr int kStimulusPasses = 11;

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
            << " gates, " << inputs << " inputs)\niters:   " << iters
            << " block evaluations per variant\nvariants:";
  for (const auto sel : selections) {
    std::cout << ' ' << netlist::laneSelectionName(sel);
  }
  std::cout << "\n\n";

  // Correctness gate: every variant, same stimulus, identical output words
  // in every 64-lane sub-block.
  const auto refEval = netlist::makeBatchEvaluator(compiled, reference);
  {
    std::vector<std::uint64_t> refOut;
    std::vector<std::uint64_t> wideOut;
    std::vector<std::uint64_t> wideIn;
    for (const auto sel : selections) {
      const auto eval = netlist::makeBatchEvaluator(compiled, sel);
      const std::size_t kW = eval->wordsPerNet();
      for (std::uint64_t it = 0; it < checkIters; ++it) {
        const std::uint64_t* plane = pool.data() + (it % kPlanes) * inputs;
        refEval->evaluateOutputsInto({plane, inputs}, refOut);
        wideIn.assign(inputs * kW, 0);
        for (std::size_t i = 0; i < inputs; ++i) {
          for (std::size_t j = 0; j < kW; ++j) wideIn[i * kW + j] = plane[i];
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
    return runStimulusPath(
        width, kStimuli, stimulusLanes,
        [&](std::span<Stimulus> stims, std::span<std::uint64_t> words,
            std::size_t stride) {
          oldStimulusBlock(rng, width, stims, words, stride);
        },
        check);
  };
  const auto runShipped = [&](auto&& check) {
    ex::UniformWorkload workload(width, kStimulusSeed);
    return runStimulusPath(
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
    (void)runOld([&](std::uint64_t, std::span<const std::uint64_t> w) {
      oldWords.emplace_back(w.begin(), w.end());
    });
    std::size_t mismatches = 0;
    std::uint64_t firstBad = 0;
    std::size_t b = 0;
    (void)runShipped([&](std::uint64_t done,
                         std::span<const std::uint64_t> w) {
      if (!std::equal(w.begin(), w.end(), oldWords[b++].begin())) {
        if (mismatches++ == 0) firstBad = done;
      }
    });
    if (mismatches != 0) {
      std::cerr << "MISMATCH: the stimulus path diverges from the old path "
                << "in " << mismatches << " block(s), first at stimulus "
                << firstBad << "\n";
      return EXIT_FAILURE;
    }
  }

  // Timed runs: gate-evaluations/sec = gates * lanes * iters / seconds.
  bench::BenchJson json("micro_simd");
  json.add("design", design.config.name())
      .add("gates", static_cast<std::uint64_t>(gates))
      .add("iters", iters);
  double refRate = 0.0;
  double rate256 = 0.0;
  std::uint64_t refChecksum = 0;
  for (const auto sel : selections) {
    const auto eval = netlist::makeBatchEvaluator(compiled, sel);
    const std::size_t kW = eval->wordsPerNet();
    std::vector<std::uint64_t> wideIn(inputs * kW);
    std::vector<std::uint64_t> out;
    std::uint64_t checksum = 0;
    const auto start = Clock::now();
    for (std::uint64_t it = 0; it < iters; ++it) {
      const std::uint64_t* plane = pool.data() + (it % kPlanes) * inputs;
      for (std::size_t i = 0; i < inputs; ++i) {
        for (std::size_t j = 0; j < kW; ++j) wideIn[i * kW + j] = plane[i];
      }
      eval->evaluateOutputsInto(wideIn, out);
      for (std::size_t o = 0; o < out.size(); o += kW) checksum += out[o];
    }
    const double sec = secondsSince(start);
    if (sel == reference) {
      refChecksum = checksum;
    } else if (checksum != refChecksum) {
      // Sub-word 0 of every output sees the reference stimulus, so the
      // folded checksum must agree exactly across variants.
      std::cerr << "MISMATCH: timed " << netlist::laneSelectionName(sel)
                << " checksum diverges from the reference\n";
      return EXIT_FAILURE;
    }
    const double rate =
        static_cast<double>(iters) * static_cast<double>(gates) *
        static_cast<double>(eval->lanes()) / sec;
    if (sel == reference) refRate = rate;
    if (sel.arch == netlist::LaneArch::Avx2) rate256 = rate;
    const std::string name = netlist::laneSelectionName(sel);
    std::cout << name << ":  " << sec << " s  (" << rate / 1e9
              << " Ggate-evals/s, " << (refRate > 0 ? rate / refRate : 1.0)
              << "x vs 64)\n";
    json.add("geps_" + name, rate);
  }

  // Headline + CI gate: the 256-lane vector variant against the 64-lane
  // reference. Without AVX2 in the build/CPU there is nothing to gate —
  // report 0 and let CI skip the assertion on such hosts.
  const double speedup = refRate > 0 && rate256 > 0 ? rate256 / refRate : 0.0;
  std::cout << "\nspeedup (256 vs 64): " << speedup << "x\n";
  json.add("ref_gate_evals_per_sec", refRate);

  // Stimulus timing: kStimulusPasses passes, each timing both paths and
  // every variant's kernels back to back. A figure is the median over the
  // passes, and the speedup the median of the per-pass ratios, so a burst
  // of host noise that hits one pass moves neither. A variant's kernels
  // are its engine's fill of two words per stimulus and the transposes
  // that packing takes: one per 64 stimuli up to 32 bits, two above.
  std::cout << "\nstimulus path: " << kStimuli << " uniform " << width
            << "-bit stimuli in blocks of " << stimulusLanes << " (median of "
            << kStimulusPasses << " passes)\n";
  const auto noCheck = [](std::uint64_t, std::span<const std::uint64_t>) {};
  const auto perStimulus = [&](double seconds) {
    return seconds * 1e9 / static_cast<double>(kStimuli);
  };
  const std::uint64_t transposes = (kStimuli / 64) * (width <= 32 ? 1 : 2);
  std::vector<double> oldNs;
  std::vector<double> shippedNs;
  std::vector<double> ratios;
  std::vector<std::vector<double>> drawNs(selections.size());
  std::vector<std::vector<double>> transposeNs(selections.size());
  for (int pass = 0; pass < kStimulusPasses; ++pass) {
    oldNs.push_back(perStimulus(runOld(noCheck)));
    shippedNs.push_back(perStimulus(runShipped(noCheck)));
    ratios.push_back(oldNs.back() / shippedNs.back());
    for (std::size_t v = 0; v < selections.size(); ++v) {
      netlist::BulkMt19937_64 rng(kStimulusSeed, selections[v].arch);
      std::vector<std::uint64_t> draws(2 * stimulusLanes);
      auto start = Clock::now();
      for (std::uint64_t done = 0; done < kStimuli; done += stimulusLanes) {
        rng.fill(draws);
      }
      drawNs[v].push_back(perStimulus(secondsSince(start)));
      const auto transpose = netlist::transpose64Kernel(selections[v].arch);
      std::array<std::uint64_t, 64> rows{};
      std::copy_n(draws.begin(), rows.size(), rows.begin());
      start = Clock::now();
      for (std::uint64_t t = 0; t < transposes; ++t) transpose(rows.data());
      transposeNs[v].push_back(perStimulus(secondsSince(start)));
    }
  }
  const double stimulusSpeedup = median(ratios);
  std::cout << "old (std::mt19937_64, per-64 portable packing): "
            << median(oldNs) << " ns/stimulus\nCPU-picked path: "
            << median(shippedNs) << " ns/stimulus (" << stimulusSpeedup
            << "x vs old)\n";
  json.add("stimulus_ns_old", median(oldNs))
      .add("stimulus_ns", median(shippedNs))
      .add("stimulus_speedup", stimulusSpeedup);
  for (std::size_t v = 0; v < selections.size(); ++v) {
    const std::string name = netlist::laneSelectionName(selections[v]);
    std::cout << "kernels " << name << ": draws " << median(drawNs[v])
              << " + transposes " << median(transposeNs[v])
              << " ns/stimulus\n";
    json.add("draw_ns_" + name, median(drawNs[v]))
        .add("transpose_ns_" + name, median(transposeNs[v]));
  }
  if (minStimulusSpeedup > 0.0 && stimulusSpeedup < minStimulusSpeedup) {
    std::cerr << "FAIL: stimulus speedup " << stimulusSpeedup
              << "x below required " << minStimulusSpeedup << "x\n";
    return EXIT_FAILURE;
  }
  return bench::finishSpeedupBench(json, args, speedup, minSpeedup);
}

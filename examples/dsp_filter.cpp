// DSP scenario from the paper's motivation: multimedia-style processing is
// resilient to adder approximation. A moving-average filter smooths a noisy
// synthetic sensor signal; its accumulator additions run on each ISA design
// (optionally overclocked at the gate level), and output quality is
// reported as SNR against the exact-adder filter — directly exercising the
// paper's claim that relative-error RMS is proportional to SNR loss.
//
// Run: ./dsp_filter [--samples=N] [--window=8] [--cpr=0|5|10|15]
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <numbers>
#include <random>
#include <vector>

#include "circuits/synthesis.h"
#include "core/isa_adder.h"
#include "experiments/cli.h"
#include "experiments/report.h"
#include "experiments/trace_collector.h"
#include "netlist/compiled_netlist.h"
#include "timing/lane_sim.h"

namespace {

/// Synthetic 16-bit unsigned sensor signal: two tones plus Gaussian noise.
std::vector<std::uint64_t> makeSignal(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, 600.0);
  std::vector<std::uint64_t> signal(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    const double clean = 20000.0 +
                         8000.0 * std::sin(2.0 * std::numbers::pi * t / 64.0) +
                         3000.0 * std::sin(2.0 * std::numbers::pi * t / 17.0);
    const double v = std::clamp(clean + noise(rng), 0.0, 65535.0);
    signal[i] = static_cast<std::uint64_t>(v);
  }
  return signal;
}

/// Moving-average filter whose accumulator runs on `add`. Samples are
/// pre-scaled into the adder's upper dynamic range (as a fixed-point DSP
/// datapath would be framed) so the 32-bit approximate adders operate at
/// the operand magnitudes the paper characterizes.
inline constexpr int kFixedPointShift = 13;

template <typename AddFn>
std::vector<double> filterWith(const std::vector<std::uint64_t>& signal,
                               std::size_t window, AddFn&& add) {
  std::vector<double> out;
  out.reserve(signal.size());
  for (std::size_t i = 0; i + window <= signal.size(); ++i) {
    std::uint64_t acc = 0;
    for (std::size_t j = 0; j < window; ++j) {
      acc = add(acc, signal[i + j] << kFixedPointShift);
    }
    out.push_back(static_cast<double>(acc >> kFixedPointShift) /
                  static_cast<double>(window));
  }
  return out;
}

double snrDb(const std::vector<double>& reference,
             const std::vector<double>& approximate) {
  double signal = 0.0, error = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    signal += reference[i] * reference[i];
    const double e = approximate[i] - reference[i];
    error += e * e;
  }
  if (error == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(signal / error);
}

int run(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);
  // A window wider than the signal (or empty) filters nothing: every row
  // would read inf/nan.
  const std::size_t samples = args.getBounded<std::size_t>("samples", 4000, 1);
  const std::size_t window =
      args.getBounded<std::size_t>("window", 8, 1, samples);
  const double cpr = args.getDouble("cpr", 0.0);
  args.rejectUnread();

  const auto signal = makeSignal(samples, 9);
  const core::IsaAdder exact(core::makeExact(32));
  const auto reference = filterWith(
      signal, window,
      [&](std::uint64_t x, std::uint64_t y) { return exact.add(x, y).sum; });

  std::cout << "== Moving-average filter (window " << window << ", "
            << samples << " samples) on ISA accumulators";
  if (cpr > 0.0) std::cout << " overclocked at " << cpr << "% CPR";
  std::cout << " ==\n\n";

  experiments::Table table({"design", "SNR[dB]", "mean|err|", "max|err|"});
  for (const auto& cfg : core::paperDesigns()) {
    std::vector<double> filtered;
    if (cpr <= 0.0) {
      const core::IsaAdder isa(cfg);
      filtered = filterWith(signal, window,
                            [&](std::uint64_t x, std::uint64_t y) {
                              return isa.add(x, y).sum;
                            });
    } else {
      // Gate-level accumulator at the reduced clock period: one stream in
      // lane 0 of the event wheel, operand bits a0..a31, b0..b31, cin.
      const auto design = circuits::synthesize(
          cfg, timing::CellLibrary::generic65(),
          circuits::SynthesisOptions{});
      timing::LaneClockedSampler sampler(
          netlist::CompiledNetlist::compile(design.netlist), design.delays,
          experiments::overclockedPeriodNs(0.3, cpr));
      std::vector<std::uint64_t> in(65, 0);
      std::vector<std::uint64_t> out;
      sampler.initialize(in);
      filtered = filterWith(
          signal, window, [&](std::uint64_t x, std::uint64_t y) {
            for (int i = 0; i < 32; ++i) {
              in[static_cast<std::size_t>(i)] = (x >> i) & 1u;
              in[static_cast<std::size_t>(32 + i)] = (y >> i) & 1u;
            }
            sampler.stepInto(in, out);
            std::uint64_t sum = 0;
            for (int i = 0; i < 32; ++i) {
              sum |= (out[static_cast<std::size_t>(i)] & 1u) << i;
            }
            return sum;
          });
    }
    double meanErr = 0.0, maxErr = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const double e = std::abs(filtered[i] - reference[i]);
      meanErr += e;
      maxErr = std::max(maxErr, e);
    }
    meanErr /= static_cast<double>(reference.size());
    const double snr = snrDb(reference, filtered);
    table.addRow({cfg.name(),
                  std::isinf(snr) ? "inf" : experiments::formatFixed(snr, 1),
                  experiments::formatFixed(meanErr, 2),
                  experiments::formatFixed(maxErr, 0)});
  }
  table.print(std::cout);
  std::cout << "\nHigher SNR = closer to the exact-adder filter output.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::experiments::runGuarded([&] { return run(argc, argv); });
}

// Approximate multiplication with ISA row adders (the paper's ref. [9]
// integrated ISA into multiplier/FPU datapaths). Characterizes product
// accuracy per adder configuration and demonstrates an image-kernel use:
// a 2D convolution whose multiplies run on the approximate multiplier.
//
// Run: ./approx_multiplier [--samples=N] [--width=16]
#include <cmath>
#include <iostream>
#include <random>

#include "core/error_model.h"
#include "core/isa_multiplier.h"
#include "experiments/cli.h"
#include "experiments/report.h"

namespace {

/// 3x3 sharpening kernel applied to a synthetic image; multiplies run on
/// `mul`, accumulation is exact (the common "approximate the multiplier"
/// datapath split).
double kernelPsnr(const oisa::core::IsaMultiplier& mul, int size,
                  std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> image(static_cast<std::size_t>(size * size));
  for (auto& px : image) px = rng() % 256;
  // Gaussian-ish blur; weights are deliberately not powers of two so the
  // multiplier exercises real partial-product additions.
  const int kernel[3][3] = {{1, 3, 1}, {3, 5, 3}, {1, 3, 1}};

  double noise = 0.0;
  std::uint64_t count = 0;
  for (int y = 1; y + 1 < size; ++y) {
    for (int x = 1; x + 1 < size; ++x) {
      std::uint64_t approx = 0, exact = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const std::uint64_t px =
              image[static_cast<std::size_t>((y + dy) * size + (x + dx))];
          const auto w =
              static_cast<std::uint64_t>(kernel[dy + 1][dx + 1]);
          approx += mul.multiply(px, w);
          exact += px * w;
        }
      }
      const double e = (static_cast<double>(approx) -
                        static_cast<double>(exact)) /
                       21.0;  // kernel weight sum
      noise += e * e;
      ++count;
    }
  }
  const double mse = noise / static_cast<double>(count);
  if (mse == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

int run(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);
  const std::uint64_t samples =
      args.getBounded<std::uint64_t>("samples", 100000, 1);
  const int width = args.getBounded<int>("width", 16);
  args.rejectUnread();

  std::cout << "== ISA-based " << width << "x" << width
            << " approximate multiplier ==\n\n";
  experiments::Table table({"row adder", "err-rate", "mean|err|",
                            "rms-rel-err[%]", "kernel PSNR[dB]"});

  struct Point {
    const char* label;
    core::MultiplierConfig cfg;
  };
  const Point points[] = {
      {"exact", core::MultiplierConfig::makeExact(width)},
      {"(8,0,0,0)", core::MultiplierConfig::make(width, 8, 0, 0, 0)},
      {"(8,0,0,4)", core::MultiplierConfig::make(width, 8, 0, 0, 4)},
      {"(8,2,1,4)", core::MultiplierConfig::make(width, 8, 2, 1, 4)},
      {"(16,2,1,6)", core::MultiplierConfig::make(width, 16, 2, 1, 6)},
      {"(16,7,0,8)", core::MultiplierConfig::make(width, 16, 7, 0, 8)},
  };

  std::mt19937_64 rng(17);
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  for (const Point& point : points) {
    const core::IsaMultiplier mul(point.cfg);
    // Products fold like adder outputs: y_diamond is the exact product,
    // y_gold = y_silver the approximate one (no timing errors).
    core::ErrorCombination errors;
    for (std::uint64_t i = 0; i < samples; ++i) {
      const std::uint64_t a = rng() & mask;
      const std::uint64_t b = rng() & mask;
      const std::uint64_t approx = mul.multiply(a, b);
      errors.add(core::OutputTriple{mul.exactMultiply(a, b), approx, approx});
    }
    const double psnr = kernelPsnr(mul, 64, 23);
    table.addRow({point.label,
                  experiments::formatSci(errors.arithStruct().errorRate(), 2),
                  experiments::formatFixed(errors.arithStruct().meanAbs(), 1),
                  experiments::formatSci(experiments::displayFloor(
                                             errors.relStruct().rms() * 100.0),
                                         2),
                  std::isinf(psnr) ? "inf"
                                   : experiments::formatFixed(psnr, 1)});
  }
  table.print(std::cout);
  std::cout << "\nThe compensation mechanisms carry over from adders to "
               "multipliers: more reduction/correction, higher PSNR.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::experiments::runGuarded([&] { return run(argc, argv); });
}

#include "netlist/lane_width.h"

#include <algorithm>
#include <stdexcept>

#include "netlist/bitops.h"

namespace oisa::netlist {

namespace {

/// Throws std::invalid_argument, naming `what`, unless this build/CPU runs
/// `arch`'s variant.
void requireRunnable(LaneArch arch, const char* what) {
  if (!cpuSupportsLaneArch(arch)) {
    throw std::invalid_argument(std::string(what) + ": variant " +
                                laneSelectionName({arch}) +
                                " is not runnable on this build/CPU");
  }
}

// Hacker's Delight 7-6 block swap, in LSB-first convention: round j
// exchanges the upper-right and lower-left j x j sub-blocks of every
// 2j x 2j block along the diagonal. Constant bounds let the compiler
// unroll every round.
template <unsigned J>
void swapRound(std::uint64_t* rows) noexcept {
  constexpr std::uint64_t m = detail::swapMask(J);
  for (unsigned base = 0; base < 64; base += 2 * J) {
    for (unsigned i = base; i < base + J; ++i) {
      const std::uint64_t t = ((rows[i] >> J) ^ rows[i + J]) & m;
      rows[i] ^= t << J;
      rows[i + J] ^= t;
    }
  }
}

void transpose64Portable(std::uint64_t* rows) noexcept {
  swapRound<32>(rows);
  swapRound<16>(rows);
  swapRound<8>(rows);
  swapRound<4>(rows);
  swapRound<2>(rows);
  swapRound<1>(rows);
}

// The whole state in two passes: words i < n - m twist against words
// that are still untouched, the rest against words the first pass
// already twisted.
void mtRefillPortable(std::uint64_t* x, std::uint64_t* out) noexcept {
  constexpr std::size_t n = BulkMt19937_64::kStateWords;
  constexpr std::size_t m = detail::kMtShift;
  for (std::size_t i = 0; i < n - m; ++i) {
    x[i] = detail::mtTwist(x[i], x[i + 1], x[i + m]);
    out[i] = detail::mtTemper(x[i]);
  }
  for (std::size_t i = n - m; i < n - 1; ++i) {
    x[i] = detail::mtTwist(x[i], x[i + 1], x[i - (n - m)]);
    out[i] = detail::mtTemper(x[i]);
  }
  x[n - 1] = detail::mtTwist(x[n - 1], x[0], x[m - 1]);
  out[n - 1] = detail::mtTemper(x[n - 1]);
}

/// The widest arch whose kernels this CPU runs, checked once.
LaneArch cpuArch() noexcept {
  static const LaneArch arch = defaultLaneSelection().arch;
  return arch;
}

struct Kernels {
  Transpose64Kernel transpose;
  BulkMt19937_64::RefillKernel refill;
};

/// `arch`'s bitops.h kernels; `what` names the caller in the error.
Kernels kernels(LaneArch arch, const char* what) {
  requireRunnable(arch, what);
#if defined(OISA_HAVE_AVX2)
  if (arch == LaneArch::Avx2) {
    return {detail::transpose64Avx2, detail::mtRefillAvx2};
  }
#endif
#if defined(OISA_HAVE_AVX512)
  if (arch == LaneArch::Avx512) {
    return {detail::transpose64Avx512, detail::mtRefillAvx512};
  }
#endif
  return {transpose64Portable, mtRefillPortable};
}

}  // namespace

Transpose64Kernel transpose64Kernel(LaneArch arch) {
  return kernels(arch, "transpose64Kernel").transpose;
}

Transpose64Kernel transpose64Kernel() noexcept {
  static const Transpose64Kernel kernel = transpose64Kernel(cpuArch());
  return kernel;
}

void transpose64(std::span<std::uint64_t, 64> rows) noexcept {
  transpose64Kernel()(rows.data());
}

BulkMt19937_64::BulkMt19937_64(result_type seed) noexcept
    : BulkMt19937_64(seed, cpuArch()) {}

BulkMt19937_64::BulkMt19937_64(result_type seed, LaneArch arch)
    : refill_(kernels(arch, "BulkMt19937_64").refill) {
  // std::mt19937_64's seeding recurrence.
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
  }
}

void BulkMt19937_64::fill(std::span<std::uint64_t> out) noexcept {
  // The buffered draws first, then whole refills tempered straight into
  // `out`, then one refill for the tail.
  const std::size_t buffered = std::min(out.size(), kStateWords - pos_);
  std::copy_n(out_.begin() + static_cast<std::ptrdiff_t>(pos_), buffered,
              out.begin());
  pos_ += buffered;
  std::size_t done = buffered;
  for (; out.size() - done >= kStateWords; done += kStateWords) {
    refill_(state_.data(), out.data() + done);
  }
  if (done < out.size()) {
    refill();
    pos_ = out.size() - done;
    std::copy_n(out_.begin(), pos_,
                out.begin() + static_cast<std::ptrdiff_t>(done));
  }
}

std::string laneSelectionName(LaneSelection sel) {
  std::string name = std::to_string(sel.lanes());
  switch (sel.arch) {
    case LaneArch::Portable: break;
    case LaneArch::Avx2: name += "-avx2"; break;
    case LaneArch::Avx512: name += "-avx512"; break;
  }
  return name;
}

bool cpuSupportsLaneArch(LaneArch arch) {
  switch (arch) {
    case LaneArch::Portable: return true;
    case LaneArch::Avx2:
#if defined(OISA_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case LaneArch::Avx512:
#if defined(OISA_HAVE_AVX512) && (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
  }
  return false;
}

std::vector<LaneSelection> availableLaneSelections() {
  std::vector<LaneSelection> out;
  for (const LaneArch arch :
       {LaneArch::Portable, LaneArch::Avx2, LaneArch::Avx512}) {
    if (cpuSupportsLaneArch(arch)) out.push_back({arch});
  }
  return out;
}

LaneSelection defaultLaneSelection() {
  return availableLaneSelections().back();
}

std::unique_ptr<AnyBatchEvaluator> makeBatchEvaluator(
    std::shared_ptr<const CompiledNetlist> compiled) {
  return makeBatchEvaluator(std::move(compiled), defaultLaneSelection());
}

std::unique_ptr<AnyBatchEvaluator> makeBatchEvaluator(
    std::shared_ptr<const CompiledNetlist> compiled, LaneSelection sel) {
  requireRunnable(sel.arch, "makeBatchEvaluator");
#if defined(OISA_HAVE_AVX2)
  if (sel.arch == LaneArch::Avx2) {
    return detail::makeBatchEvaluatorAvx2(std::move(compiled));
  }
#endif
#if defined(OISA_HAVE_AVX512)
  if (sel.arch == LaneArch::Avx512) {
    return detail::makeBatchEvaluatorAvx512(std::move(compiled));
  }
#endif
  return std::make_unique<BatchEvaluator>(std::move(compiled));
}

}  // namespace oisa::netlist

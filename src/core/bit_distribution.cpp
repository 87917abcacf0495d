#include "core/bit_distribution.h"

#include <bit>
#include <stdexcept>

namespace oisa::core {

BitErrorDistribution::BitErrorDistribution(int width) : width_(width) {
  if (width < 1 || width > 64) {
    throw std::invalid_argument("BitErrorDistribution: width must be 1..64");
  }
  flips_.assign(static_cast<std::size_t>(width), 0);
}

void BitErrorDistribution::add(std::uint64_t observed,
                               std::uint64_t reference) noexcept {
  ++cycles_;
  std::uint64_t diff = observed ^ reference;
  if (width_ < 64) diff &= (std::uint64_t{1} << width_) - 1;
  while (diff != 0) {
    const int pos = std::countr_zero(diff);
    ++flips_[static_cast<std::size_t>(pos)];
    diff &= diff - 1;
  }
}

std::vector<double> BitErrorDistribution::rates() const {
  std::vector<double> r(flips_.size(), 0.0);
  if (cycles_ == 0) return r;
  for (std::size_t i = 0; i < flips_.size(); ++i) {
    r[i] = static_cast<double>(flips_[i]) / static_cast<double>(cycles_);
  }
  return r;
}

}  // namespace oisa::core

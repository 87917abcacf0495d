#include "core/isa_config.h"

#include <stdexcept>

namespace oisa::core {

std::string IsaConfig::name() const {
  if (exact) return "exact";
  std::string out = "(";
  for (const int field : {block, spec, correction, reduction}) {
    out.append(std::to_string(field)).push_back(',');
  }
  out.back() = ')';
  if (speculateHigh) out.push_back('+');
  return out;
}

void IsaConfig::validate() const {
  if (width < 1 || width > 64) {
    throw std::invalid_argument("IsaConfig: width must be in [1,64]");
  }
  if (exact) return;
  if (block < 1 || block > width || width % block != 0) {
    throw std::invalid_argument(
        "IsaConfig: block must divide width (got block=" +
        std::to_string(block) + ", width=" + std::to_string(width) + ")");
  }
  if (spec < 0 || spec > block) {
    throw std::invalid_argument("IsaConfig: spec must be in [0, block]");
  }
  if (correction < 0 || correction > block) {
    throw std::invalid_argument("IsaConfig: correction must be in [0, block]");
  }
  if (reduction < 0 || reduction > block) {
    throw std::invalid_argument("IsaConfig: reduction must be in [0, block]");
  }
}

IsaConfig makeIsa(int block, int spec, int correction, int reduction,
                  int width) {
  IsaConfig cfg;
  cfg.width = width;
  cfg.block = block;
  cfg.spec = spec;
  cfg.correction = correction;
  cfg.reduction = reduction;
  cfg.exact = false;
  cfg.validate();
  return cfg;
}

IsaConfig makeExact(int width) {
  IsaConfig cfg;
  cfg.width = width;
  cfg.exact = true;
  cfg.validate();
  return cfg;
}

const std::vector<IsaConfig>& paperDesigns() {
  static const std::vector<IsaConfig> designs = {
      makeIsa(8, 0, 0, 0),  makeIsa(8, 0, 0, 2),  makeIsa(8, 0, 0, 4),
      makeIsa(8, 0, 1, 4),  makeIsa(8, 0, 1, 6),  makeIsa(16, 0, 0, 0),
      makeIsa(16, 1, 0, 0), makeIsa(16, 1, 0, 2), makeIsa(16, 2, 0, 4),
      makeIsa(16, 2, 1, 6), makeIsa(16, 7, 0, 8), makeExact(32),
  };
  return designs;
}

}  // namespace oisa::core

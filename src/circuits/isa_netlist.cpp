#include "circuits/isa_netlist.h"

#include <stdexcept>
#include <string>

#include "circuits/compensation.h"
#include "circuits/speculator.h"

namespace oisa::circuits {

using netlist::Netlist;
using netlist::NetId;

namespace {

/// Instantiates the ISA (or exact) adder of a validated `cfg` over the
/// cfg.width-bit operand nets `a`, `b` inside `nl` and returns the
/// sum/carry nets.
AdderPorts buildIsaCore(Netlist& nl, const core::IsaConfig& cfg,
                        std::span<const NetId> a, std::span<const NetId> b,
                        std::optional<NetId> carryIn,
                        const IsaBuildOptions& options) {
  if (cfg.exact) {
    return buildAdder(nl, a, b, carryIn, options.subAdderTopology);
  }
  {
    const int k = cfg.block;
    const int paths = cfg.pathCount();
    const int s = cfg.spec;
    const int r = cfg.reduction;

    // Stage 1: SPEC + ADD per path.
    std::vector<std::vector<NetId>> pathSums(
        static_cast<std::size_t>(paths));
    std::vector<NetId> pathCouts(static_cast<std::size_t>(paths));
    std::vector<NetId> pathSpecs(static_cast<std::size_t>(paths));
    for (int i = 0; i < paths; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const auto base = static_cast<std::size_t>(i * k);
      const std::span<const NetId> ai(a.data() + base,
                                      static_cast<std::size_t>(k));
      const std::span<const NetId> bi(b.data() + base,
                                      static_cast<std::size_t>(k));
      std::optional<NetId> specCarry;
      if (i == 0) {
        // The first path uses the true adder carry-in (a constant 0 when
        // the instantiation has no carry-in).
        if (!carryIn) {
          specCarry = std::nullopt;
          pathSpecs[idx] = nl.constant(false);
        } else {
          specCarry = carryIn;
          pathSpecs[idx] = *carryIn;
        }
      } else if (s > 0) {
        const auto wbase = base - static_cast<std::size_t>(s);
        const std::span<const NetId> aw(a.data() + wbase,
                                        static_cast<std::size_t>(s));
        const std::span<const NetId> bw(b.data() + wbase,
                                        static_cast<std::size_t>(s));
        pathSpecs[idx] = buildSpeculator(nl, aw, bw, cfg.speculateHigh);
        specCarry = pathSpecs[idx];
      } else if (cfg.speculateHigh) {
        // S == 0 speculating high: constant-1 carry into the sub-adder.
        pathSpecs[idx] = nl.constant(true);
        specCarry = pathSpecs[idx];
      } else {
        // S == 0: carry speculated constant-0; the sub-adder takes no cin
        // (a synthesis tool would fold the constant the same way).
        pathSpecs[idx] = nl.constant(false);
        specCarry = std::nullopt;
      }
      AdderPorts ports =
          buildAdder(nl, ai, bi, specCarry, options.subAdderTopology);
      pathSums[idx] = std::move(ports.sum);
      pathCouts[idx] = ports.carryOut;
    }

    // Stage 2: COMP per path (ascending, so balancing acts on the
    // preceding path's post-correction bits, as in the behavioral model).
    for (int i = 1; i < paths; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const auto rSize = static_cast<std::size_t>(r);
      const std::span<const NetId> prevTop =
          r > 0 ? std::span<const NetId>(
                      pathSums[idx - 1].data() +
                          (static_cast<std::size_t>(k) - rSize),
                      rSize)
                : std::span<const NetId>();
      CompensationPorts comp =
          buildCompensation(nl, pathSpecs[idx], pathCouts[idx - 1],
                            pathSums[idx], prevTop, cfg.correction);
      pathSums[idx] = std::move(comp.correctedSum);
      for (std::size_t j = 0; j < comp.balancedPrevTop.size(); ++j) {
        pathSums[idx - 1][static_cast<std::size_t>(k) - rSize + j] =
            comp.balancedPrevTop[j];
      }
    }

    AdderPorts result;
    result.sum.reserve(static_cast<std::size_t>(cfg.width));
    for (int i = 0; i < paths; ++i) {
      const auto& ps = pathSums[static_cast<std::size_t>(i)];
      result.sum.insert(result.sum.end(), ps.begin(), ps.end());
    }
    result.carryOut = pathCouts[static_cast<std::size_t>(paths - 1)];
    return result;
  }
}

}  // namespace

netlist::Netlist buildIsaNetlist(const core::IsaConfig& cfg,
                                 const IsaBuildOptions& options) {
  cfg.validate();
  Netlist nl(cfg.name());
  const int width = cfg.width;

  std::vector<NetId> a, b;
  a.reserve(static_cast<std::size_t>(width));
  b.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    a.push_back(nl.input(std::string("a").append(std::to_string(i))));
  }
  for (int i = 0; i < width; ++i) {
    b.push_back(nl.input(std::string("b").append(std::to_string(i))));
  }
  const NetId cin = nl.input("cin");

  const AdderPorts ports = buildIsaCore(nl, cfg, a, b, cin, options);
  for (int i = 0; i < width; ++i) {
    nl.output(std::string("s").append(std::to_string(i)),
              ports.sum[static_cast<std::size_t>(i)]);
  }
  nl.output("cout", ports.carryOut);
  return nl;
}

std::vector<std::uint8_t> packOperands(std::uint64_t a, std::uint64_t b,
                                       bool carryIn, int width) {
  std::vector<std::uint8_t> in;
  packOperandsInto(a, b, carryIn, width, in);
  return in;
}

void packOperandsInto(std::uint64_t a, std::uint64_t b, bool carryIn,
                      int width, std::vector<std::uint8_t>& in) {
  in.resize(static_cast<std::size_t>(2 * width + 1));
  for (int i = 0; i < width; ++i) {
    in[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((a >> i) & 1u);
    in[static_cast<std::size_t>(width + i)] =
        static_cast<std::uint8_t>((b >> i) & 1u);
  }
  in[static_cast<std::size_t>(2 * width)] = carryIn ? 1 : 0;
}

std::uint64_t unpackSum(std::span<const std::uint8_t> outputs, int width) {
  if (outputs.size() < static_cast<std::size_t>(width) + 1) {
    throw std::invalid_argument("unpackSum: output vector too small");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    if (outputs[static_cast<std::size_t>(i)]) {
      v |= std::uint64_t{1} << i;
    }
  }
  return v;
}

bool unpackCarryOut(std::span<const std::uint8_t> outputs, int width) {
  if (outputs.size() < static_cast<std::size_t>(width) + 1) {
    throw std::invalid_argument("unpackCarryOut: output vector too small");
  }
  return outputs[static_cast<std::size_t>(width)] != 0;
}

}  // namespace oisa::circuits

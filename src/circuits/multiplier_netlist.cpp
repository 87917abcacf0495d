#include "circuits/multiplier_netlist.h"

#include <stdexcept>
#include <string>

namespace oisa::circuits {

using netlist::GateKind;
using netlist::Netlist;
using netlist::NetId;

netlist::Netlist buildMultiplierNetlist(const core::MultiplierConfig& cfg,
                                        const IsaBuildOptions& options) {
  cfg.validate();
  const int w = cfg.width;
  const int pw = 2 * w;
  Netlist nl("mul" + std::to_string(w) + "x" + std::to_string(w) + "_" +
             cfg.adder.name());

  std::vector<NetId> a, b;
  for (int i = 0; i < w; ++i) {
    a.push_back(nl.input(std::string("a").append(std::to_string(i))));
  }
  for (int i = 0; i < w; ++i) {
    b.push_back(nl.input(std::string("b").append(std::to_string(i))));
  }
  const NetId zero = nl.constant(false);

  // Row 0 initializes the accumulator with (a & b0) in the low W bits.
  std::vector<NetId> acc(static_cast<std::size_t>(pw), zero);
  for (int j = 0; j < w; ++j) {
    acc[static_cast<std::size_t>(j)] =
        nl.gate2(GateKind::And2, a[static_cast<std::size_t>(j)], b[0]);
  }

  // Rows 1..W-1: acc += (a & b_i) << i through the ISA row adder.
  for (int i = 1; i < w; ++i) {
    std::vector<NetId> pp(static_cast<std::size_t>(pw), zero);
    for (int j = 0; j < w; ++j) {
      pp[static_cast<std::size_t>(i + j)] =
          nl.gate2(GateKind::And2, a[static_cast<std::size_t>(j)],
                   b[static_cast<std::size_t>(i)]);
    }
    AdderPorts row =
        buildIsaCore(nl, cfg.adder, acc, pp, std::nullopt, options);
    acc = std::move(row.sum);  // carry-out cannot fire for in-range products
  }

  for (int j = 0; j < pw; ++j) {
    nl.output(std::string("p").append(std::to_string(j)),
              acc[static_cast<std::size_t>(j)]);
  }
  nl.validate();
  return nl;
}

std::vector<std::uint8_t> packMultiplierOperands(std::uint64_t a,
                                                 std::uint64_t b, int width) {
  std::vector<std::uint8_t> in(static_cast<std::size_t>(2 * width));
  for (int i = 0; i < width; ++i) {
    in[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((a >> i) & 1u);
    in[static_cast<std::size_t>(width + i)] =
        static_cast<std::uint8_t>((b >> i) & 1u);
  }
  return in;
}

std::uint64_t unpackProduct(std::span<const std::uint8_t> outputs,
                            int width) {
  if (outputs.size() < static_cast<std::size_t>(2 * width)) {
    throw std::invalid_argument("unpackProduct: output vector too small");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 2 * width; ++i) {
    if (outputs[static_cast<std::size_t>(i)]) v |= std::uint64_t{1} << i;
  }
  return v;
}

}  // namespace oisa::circuits

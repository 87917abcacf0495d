#include "timing/unroll.h"

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"

namespace oisa::timing {

namespace {

constexpr std::uint32_t kNone = 0xffffffff;

[[noreturn]] void reject(const netlist::CompiledNetlist& compiled,
                         const std::string& why) {
  throw core::StatusError(core::Status::invalidInput(
      "unrollSampled: netlist '" + compiled.source().name() + "' " + why));
}

/// floor(t / p) and t - p * floor(t / p), for p > 0 and any sign of t.
TimePs floorDiv(TimePs t, TimePs p) {
  return t >= 0 ? t / p : -((-t + p - 1) / p);
}
TimePs floorMod(TimePs t, TimePs p) { return t - p * floorDiv(t, p); }

/// The recursion of unroll.h over one compiled netlist.
class Unroller {
 public:
  Unroller(const netlist::CompiledNetlist& compiled,
           std::vector<TimePs> delaysPs, TimePs periodPs,
           std::span<const NetClamp> clamps)
      : compiled_(compiled),
        delaysPs_(std::move(delaysPs)),
        periodPs_(periodPs),
        driver_(compiled.netCount(), kNone),
        port_(compiled.netCount(), kNone),
        residues_(compiled.netCount()),
        longest_(compiled.netCount(), -1),
        constant_(compiled.netCount(), 0),
        memo_(compiled.netCount()),
        settled_(compiled.netCount()),
        share_(clamps.empty()) {
    std::vector<std::int8_t> clamp(compiled.netCount(), -1);
    for (const NetClamp& c : clamps) {
      if (c.net >= compiled.netCount()) {
        reject(compiled, "has no net " + std::to_string(c.net) + " to clamp");
      }
      clamp[c.net] = c.value ? 1 : 0;
    }
    const auto inputs = compiled.inputNets();
    for (std::uint32_t i = 0; i < inputs.size(); ++i) {
      const std::uint32_t net = inputs[i];
      port_[net] = i;
      if (clamp[net] < 0) {
        residues_[net] = {0};
        longest_[net] = 0;
      } else {
        constant_[net] = static_cast<std::uint8_t>(clamp[net]);
      }
    }
    // Per net, in gate order (a topological order): the input-to-net path
    // delays modulo P (empty: no unclamped input reaches the net, which is
    // then a constant), the longest such path, and a constant net's value.
    for (std::uint32_t gi = 0; gi < compiled.gateCount(); ++gi) {
      const netlist::CompiledNetlist::GateRec& g = compiled.gate(gi);
      driver_[g.out] = gi;
      if (clamp[g.out] >= 0) {
        constant_[g.out] = static_cast<std::uint8_t>(clamp[g.out]);
        continue;
      }
      const TimePs d = delaysPs_[gi];
      std::vector<TimePs>& own = residues_[g.out];
      std::array<bool, 3> values{};
      for (int pin = 0; pin < netlist::gateArity(g.kind); ++pin) {
        const std::uint32_t in = g.in[static_cast<std::size_t>(pin)];
        for (const TimePs r : residues_[in]) {
          own.push_back((r + d) % periodPs_);
        }
        if (longest_[in] >= 0) {
          longest_[g.out] = std::max(longest_[g.out], longest_[in] + d);
        }
        values[static_cast<std::size_t>(pin)] = constant_[in] != 0;
      }
      std::sort(own.begin(), own.end());
      own.erase(std::unique(own.begin(), own.end()), own.end());
      if (own.empty()) {
        constant_[g.out] =
            netlist::evalGate(g.kind, values[0], values[1], values[2]) ? 1
                                                                       : 0;
      }
    }
  }

  UnrolledSampler run() {
    // The latch reads the state 1 ps before the edge, P - 1 ps into the
    // sampled cycle: a path of delay D reaches back floor(D / P) cycles.
    TimePs deepest = -1;
    for (const std::uint32_t net : compiled_.outputNets()) {
      deepest = std::max(deepest, longest_[net]);
    }
    UnrolledSampler out;
    out.history = deepest < 0 ? 1 : static_cast<int>(deepest / periodPs_) + 1;
    out_ = &out.netlist;
    const netlist::Netlist& source = compiled_.source();
    for (int j = 0; j < out.history; ++j) {
      for (const netlist::NetId pi : source.primaryInputs()) {
        std::string name = source.net(pi).name;
        if (j > 0) name += "@-" + std::to_string(j);
        inputs_.push_back(out.netlist.input(std::move(name)));
      }
    }
    const auto outputs = compiled_.outputNets();
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      out.netlist.output(source.outputName(o), node(outputs[o], periodPs_ - 1));
    }
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      out.netlist.output(source.outputName(o) + "@settled",
                         settled(outputs[o]));
    }
    return out;
  }

 private:
  /// Net `net`'s value at time t, relative to the start of the sampled
  /// cycle, as a net of the unrolled netlist.
  netlist::NetId node(std::uint32_t net, TimePs t) {
    const std::vector<TimePs>& residues = residues_[net];
    if (residues.empty()) return out_->constant(constant_[net] != 0);
    // Every path into the net samples the current stimulus.
    if (share_ && t >= longest_[net]) return settled(net);
    // The latest potential change at or before t.
    const TimePs phase = floorMod(t, periodPs_);
    const auto after =
        std::upper_bound(residues.begin(), residues.end(), phase);
    t -= after != residues.begin() ? phase - *(after - 1)
                                   : phase - residues.back() + periodPs_;
    if (port_[net] != kNone) {
      const auto back = static_cast<std::size_t>(-floorDiv(t, periodPs_));
      return inputs_[back * compiled_.inputNets().size() + port_[net]];
    }
    for (const auto& [time, id] : memo_[net]) {
      if (time == t) return id;
    }
    const std::uint32_t gi = driver_[net];
    const netlist::NetId id = copyGate(gi, [&](std::uint32_t in) {
      return node(in, t - delaysPs_[gi]);
    });
    memo_[net].emplace_back(t, id);
    return id;
  }

  /// Net `net` settled under the current stimulus with no clamp held, as a
  /// net of the unrolled netlist.
  netlist::NetId settled(std::uint32_t net) {
    netlist::NetId& id = settled_[net];
    if (id.valid()) return id;
    if (port_[net] != kNone) return id = inputs_[port_[net]];
    return id = copyGate(driver_[net],
                         [&](std::uint32_t in) { return settled(in); });
  }

  /// Gate `gi` of the source as a gate of the unrolled netlist, reading
  /// `input(net)` for each of its input nets.
  template <class Input>
  netlist::NetId copyGate(std::uint32_t gi, Input input) {
    const netlist::CompiledNetlist::GateRec& g = compiled_.gate(gi);
    const int arity = netlist::gateArity(g.kind);
    std::array<netlist::NetId, 3> ins{};
    for (int pin = 0; pin < arity; ++pin) {
      ins[static_cast<std::size_t>(pin)] =
          input(g.in[static_cast<std::size_t>(pin)]);
    }
    return out_->gate(g.kind,
                      std::span(ins.data(), static_cast<std::size_t>(arity)));
  }

  const netlist::CompiledNetlist& compiled_;
  std::vector<TimePs> delaysPs_;
  TimePs periodPs_;
  std::vector<std::uint32_t> driver_;  ///< driving gate per net
  std::vector<std::uint32_t> port_;    ///< primary-input index per net
  std::vector<std::vector<TimePs>> residues_;
  std::vector<TimePs> longest_;  ///< -1: no unclamped input reaches the net
  std::vector<std::uint8_t> constant_;
  std::vector<std::vector<std::pair<TimePs, netlist::NetId>>> memo_;
  std::vector<netlist::NetId> settled_;
  /// No clamp is held, so a sampled net whose every path reads the
  /// current stimulus is its settled node.
  bool share_;
  std::vector<netlist::NetId> inputs_;
  netlist::Netlist* out_ = nullptr;
};

}  // namespace

UnrolledSampler unrollSampled(const netlist::CompiledNetlist& compiled,
                              const DelayAnnotation& delays, TimePs periodPs,
                              std::span<const NetClamp> clamps) {
  if (delays.gateCount() != compiled.gateCount()) {
    reject(compiled, "has " + std::to_string(compiled.gateCount()) +
                         " gates but the annotation has " +
                         std::to_string(delays.gateCount()));
  }
  if (periodPs <= 0) {
    reject(compiled, "cannot be sampled every " + std::to_string(periodPs) +
                         " ps");
  }
  std::vector<TimePs> delaysPs = delays.quantizedDelaysPs();
  for (const TimePs d : delaysPs) {
    if (d < 0) reject(compiled, "has a negative gate delay");
  }
  return Unroller(compiled, std::move(delaysPs), periodPs, clamps).run();
}

}  // namespace oisa::timing

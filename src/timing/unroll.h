// oisa_timing: the sampled-output function of an overclocked netlist.
//
// What a clocked register latches from a combinational netlist is a
// deterministic function of the last few input vectors, and the timed
// wheel engines compute it by replaying whole waveforms. unrollSampled()
// compiles that function instead: a plain combinational Netlist over the
// current and k - 1 previous stimuli whose outputs equal, record for
// record, the outputs the wheel engines latch at each edge. It is a timed
// Boolean function (Lam & Brayton, "Timed Boolean Functions", 1994), close
// to the PC-set method of compiled timing simulation (Maurer & Wang, DAC
// 1990).
//
// Why it is exact. The wheel engines are transport-delay engines on the
// integer-ps grid: a gate schedules f(inputs now) at now + d and pending
// events are never cancelled, zero-delay gates resolve within their time
// slot, and the latch reads the state strictly before the edge. So net n
// at time t holds f_g(inputs at t - d_g), and a primary input at time t
// holds the stimulus of cycle floor(t / P). The unroller starts at every
// primary output at (edge - 1 ps) and applies that recursion down to the
// primary inputs. The settle vector stands in for every stimulus before
// the first: the settled state is the recursion's fixed point under it.
//
// Node sharing. Net n can change only at times mP + delta with delta one
// of its input-to-net path delays, so its value at t equals its value at
// the latest such time <= t. Nodes are memoized on (net, that time): every
// probe of a net between two potential changes maps to one node. Only the
// path delays modulo P matter, and those sets are small.
//
// A clamped net (a stem stuck-at defect, a tied input) is a constant, and
// so is every net no unclamped primary input reaches.
//
// Settled outputs. Beside the sampled outputs the netlist carries each
// output settled under the current stimulus alone with no clamp held: the
// correctly clocked, fault-free circuit (the paper's y_gold). With no
// clamp held the two copies share nodes: a sampled probe of net n at
// t >= longest(n), the longest input-to-n path, reads the current
// stimulus on every path, so it is n's settled node. Under a clamp the
// settled copy is built apart from the clamped one and stays fault-free.
#pragma once

#include <cstdint>
#include <span>

#include "netlist/compiled_netlist.h"
#include "netlist/netlist.h"
#include "timing/delay_annotation.h"

namespace oisa::timing {

/// Holds one net at a constant value in every cycle.
struct NetClamp {
  std::uint32_t net = 0;  ///< NetId::value in the source netlist
  bool value = false;
};

/// The sampled-output function of one (netlist, delays, period, clamps).
struct UnrolledSampler {
  /// Combinational netlist. Primary input j * I + i (I = the source's
  /// input count) is source input i of the stimulus applied j cycles
  /// before the sampled one, j in [0, history). With O the source's output
  /// count, primary output o < O is what source output o latches at the
  /// end of the current cycle, and output O + o is source output o settled
  /// under the current stimulus (inputs [0, I)) with no clamp held.
  netlist::Netlist netlist;
  /// k: the sampled outputs read the current stimulus plus the k - 1
  /// before it. At least 1.
  int history = 1;
};

/// Unrolls `compiled` (annotated with `delays`, quantized to the ps grid)
/// sampled every `periodPs` picoseconds, with `clamps` held constant.
/// Throws core::StatusError(InvalidInput) for a cyclic netlist, an
/// annotation of another netlist, a negative delay, a non-positive period
/// or a clamp on a net the netlist does not have.
[[nodiscard]] UnrolledSampler unrollSampled(
    const netlist::CompiledNetlist& compiled, const DelayAnnotation& delays,
    TimePs periodPs, std::span<const NetClamp> clamps = {});

}  // namespace oisa::timing

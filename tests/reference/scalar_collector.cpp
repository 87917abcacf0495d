#include "reference/scalar_collector.h"

#include <vector>

#include "circuits/isa_netlist.h"
#include "core/isa_adder.h"
#include "netlist/compiled_netlist.h"
#include "timing/lane_sim.h"

namespace oisa::experiments {

predict::Trace collectTraceScalar(const circuits::SynthesizedDesign& design,
                                  double periodNs, Workload& workload,
                                  std::uint64_t cycles) {
  const int width = design.config.width;
  const core::IsaAdder behavioral(design.config);
  timing::LaneClockedSampler sampler(
      netlist::CompiledNetlist::compile(design.netlist), design.delays,
      periodNs);

  // One stream in lane 0; lanes 1-63 stay at the all-inputs-low reset
  // state. Reusable buffers keep the per-cycle loop allocation-free
  // (trace growth aside), so event processing is its only per-cycle cost.
  std::vector<std::uint8_t> inputs;
  std::vector<std::uint64_t> inWords;
  std::vector<std::uint64_t> outWords;
  std::vector<std::uint8_t> outputs;
  const auto pack = [&](const Stimulus& stim) {
    circuits::packOperandsInto(stim.a, stim.b, stim.carryIn, width, inputs);
    inWords.assign(inputs.begin(), inputs.end());
  };

  pack(workload.next());
  sampler.initialize(inWords);

  predict::Trace trace;
  trace.reserve(cycles);
  for (std::uint64_t t = 0; t < cycles; ++t) {
    const Stimulus stim = workload.next();
    pack(stim);
    sampler.stepInto(inWords, outWords);
    outputs.resize(outWords.size());
    for (std::size_t i = 0; i < outWords.size(); ++i) {
      outputs[i] = static_cast<std::uint8_t>(outWords[i] & 1u);
    }

    predict::TraceRecord rec;
    rec.a = stim.a;
    rec.b = stim.b;
    rec.carryIn = stim.carryIn;
    const core::IsaSum diamond =
        behavioral.exactAdd(stim.a, stim.b, stim.carryIn);
    rec.diamond = diamond.sum;
    rec.diamondCout = diamond.carryOut;
    const core::IsaSum gold = behavioral.add(stim.a, stim.b, stim.carryIn);
    rec.gold = gold.sum;
    rec.goldCout = gold.carryOut;
    rec.silver = circuits::unpackSum(outputs, width);
    rec.silverCout = circuits::unpackCarryOut(outputs, width);
    trace.push_back(rec);
  }
  return trace;
}

}  // namespace oisa::experiments

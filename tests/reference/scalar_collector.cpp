#include "reference/scalar_collector.h"

#include <vector>

#include "circuits/isa_netlist.h"
#include "core/isa_adder.h"
#include "timing/event_sim.h"

namespace oisa::experiments {

predict::Trace collectTraceScalar(const circuits::SynthesizedDesign& design,
                                  double periodNs, Workload& workload,
                                  std::uint64_t cycles) {
  const int width = design.config.width;
  const core::IsaAdder behavioral(design.config);
  timing::ClockedSampler sampler(design.netlist, design.delays, periodNs);

  // Reusable input/output buffers: the per-cycle loop performs no heap
  // allocation (trace growth aside), keeping the wheel engine's event
  // processing the only per-cycle cost.
  std::vector<std::uint8_t> inputs;
  std::vector<std::uint8_t> outputs;

  const Stimulus reset = workload.next();
  circuits::packOperandsInto(reset.a, reset.b, reset.carryIn, width, inputs);
  sampler.initialize(inputs);

  predict::Trace trace;
  trace.reserve(cycles);
  for (std::uint64_t t = 0; t < cycles; ++t) {
    const Stimulus stim = workload.next();
    circuits::packOperandsInto(stim.a, stim.b, stim.carryIn, width, inputs);
    sampler.stepInto(inputs, outputs);

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

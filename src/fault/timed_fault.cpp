#include "fault/timed_fault.h"

#include <stdexcept>

namespace oisa::fault {

void injectStuckAt(timing::LaneTimedSimulator& sim, const Fault& f,
                   std::uint64_t laneMask) {
  if (!f.isStem()) {
    throw std::invalid_argument(
        "injectStuckAt: branch faults are pin-level and cannot be "
        "expressed as a net clamp; use a stem fault");
  }
  sim.forceNet(netlist::NetId{f.net}, laneMask, stuckWord(f.stuck));
}

std::vector<Fault> selectTimedFaults(std::span<const Fault> candidates,
                                     std::size_t count) {
  std::vector<Fault> stems;
  for (const Fault& f : candidates) {
    if (f.isStem()) stems.push_back(f);
  }
  if (stems.size() <= count) return stems;
  // Even stride over the stem list: candidates arrive in net order, so a
  // contiguous prefix would sample only the lowest-significance sites.
  std::vector<Fault> picked;
  picked.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    picked.push_back(stems[i * stems.size() / count]);
  }
  return picked;
}

}  // namespace oisa::fault

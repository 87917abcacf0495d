#include "reference/heap_sim.h"

#include <algorithm>
#include <stdexcept>

#include "reference/evaluator.h"

namespace oisa::timing {

using netlist::Gate;
using netlist::GateId;
using netlist::Netlist;
using netlist::NetId;

HeapSimulator::HeapSimulator(const Netlist& nl, const DelayAnnotation& delays)
    : nl_(nl), fanout_(nl.fanoutMap()) {
  if (delays.gateCount() != nl.gateCount()) {
    throw std::invalid_argument(
        "HeapSimulator: annotation does not match netlist");
  }
  const std::vector<TimePs> ps = delays.quantizedDelaysPs();
  delaysPs_.assign(ps.begin(), ps.end());
  reset();
}

void HeapSimulator::reset() {
  const netlist::Evaluator eval(nl_);
  std::vector<std::uint8_t> zeros(nl_.primaryInputs().size(), 0);
  values_ = eval.evaluate(zeros);
  heap_.clear();
  now_ = 0.0;
  seq_ = 0;
  eventCount_ = 0;
  lastScheduled_ = values_;
}

void HeapSimulator::applyInputs(std::span<const std::uint8_t> inputValues) {
  const auto pis = nl_.primaryInputs();
  if (inputValues.size() != pis.size()) {
    throw std::invalid_argument("HeapSimulator: wrong input vector size");
  }
  for (std::size_t i = 0; i < pis.size(); ++i) {
    const std::uint8_t v = inputValues[i] ? 1 : 0;
    if (values_[pis[i].value] != v) {
      values_[pis[i].value] = v;
      lastScheduled_[pis[i].value] = v;
      if (observer_) observer_(now_, pis[i], v != 0);
      scheduleReaders(pis[i], now_);
    }
  }
}

void HeapSimulator::scheduleReaders(NetId net, double atTime) {
  for (GateId reader : fanout_[net.value]) {
    const Gate& g = nl_.gateAt(reader);
    const auto ins = g.inputs();
    const bool a = !ins.empty() && values_[ins[0].value] != 0;
    const bool b = ins.size() > 1 && values_[ins[1].value] != 0;
    const bool c = ins.size() > 2 && values_[ins[2].value] != 0;
    const std::uint8_t out = evalGate(g.kind, a, b, c) ? 1 : 0;
    if (lastScheduled_[g.out.value] == out) continue;
    lastScheduled_[g.out.value] = out;
    heap_.push_back(Event{atTime + delaysPs_[reader.value], g.out.value, out,
                          seq_++});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
}

void HeapSimulator::runUntil(double horizon) {
  while (!heap_.empty() && heap_.front().time < horizon) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const Event e = heap_.back();
    heap_.pop_back();
    if (values_[e.net] == e.value) continue;
    values_[e.net] = e.value;
    ++eventCount_;
    if (observer_) observer_(e.time, NetId{e.net}, e.value != 0);
    scheduleReaders(NetId{e.net}, e.time);
  }
}

void HeapSimulator::advancePs(TimePs deltaPs) {
  const double horizon = now_ + static_cast<double>(deltaPs);
  runUntil(horizon);
  now_ = horizon;
}

TimePs HeapSimulator::settlePs() {
  double last = now_;
  while (!heap_.empty()) {
    last = std::max(last, heap_.front().time);
    // Timestamps are integers, so half a tick past the front event is an
    // exact "process everything at this instant" horizon (the seed used a
    // 1e-12 ns epsilon here).
    runUntil(heap_.front().time + 0.5);
  }
  now_ = std::max(now_, last);
  return static_cast<TimePs>(last);
}

std::vector<std::uint8_t> HeapSimulator::sampleOutputs() const {
  const auto pos = nl_.primaryOutputs();
  std::vector<std::uint8_t> out(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    out[i] = values_[pos[i].value];
  }
  return out;
}

}  // namespace oisa::timing

#include "netlist/bdd.h"

#include <algorithm>

namespace oisa::netlist {

namespace {

constexpr Bdd::Node kNil = 0xffffffff;          // unique-table chain end
constexpr std::uint32_t kTerminalVar = 0xffffffff;  // below every variable
constexpr std::size_t kBuckets = Bdd::kNodeCap / 4;
constexpr std::size_t kCacheEntries = std::size_t{1} << 13;

[[nodiscard]] constexpr std::size_t mix(std::uint32_t a, std::uint32_t b,
                                        std::uint32_t c) noexcept {
  std::uint64_t h = a * 0x9e3779b97f4a7c15ull;
  h = (h ^ b) * 0xc2b2ae3d27d4eb4full;
  h = (h ^ c) * 0x165667b19e3779f9ull;
  return static_cast<std::size_t>(h >> 32);
}

}  // namespace

Bdd::Bdd() : buckets_(kBuckets, kNil), cache_(kCacheEntries) {
  nodes_.reserve(1024);
  nodes_.push_back({kTerminalVar, kFalse, kFalse, kNil});
  nodes_.push_back({kTerminalVar, kTrue, kTrue, kNil});
}

Bdd::Node Bdd::var(std::uint32_t v) { return makeNode(v, kFalse, kTrue); }

Bdd::Node Bdd::makeNode(std::uint32_t var, Node lo, Node hi) {
  if (lo == hi) return lo;
  Node& head = buckets_[mix(var, lo, hi) % kBuckets];
  for (Node n = head; n != kNil; n = nodes_[n].next) {
    const NodeRec& r = nodes_[n];
    if (r.var == var && r.lo == lo && r.hi == hi) return n;
  }
  if (nodes_.size() >= kNodeCap) return kOverflow;
  const auto n = static_cast<Node>(nodes_.size());
  nodes_.push_back({var, lo, hi, head});
  head = n;
  return n;
}

Bdd::Node Bdd::ite(Node f, Node g, Node h) {
  if (f == kOverflow || g == kOverflow || h == kOverflow) return kOverflow;
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;
  CacheEntry& entry = cache_[mix(f, g, h) % kCacheEntries];
  if (entry.f == f && entry.g == g && entry.h == h &&
      (entry.epoch == 0 || entry.epoch == epoch_)) {
    ++hits_;
    return entry.result;
  }
  const std::uint32_t v =
      std::min({nodes_[f].var, nodes_[g].var, nodes_[h].var});
  const auto lo = [&](Node n) { return nodes_[n].var == v ? nodes_[n].lo : n; };
  const auto hi = [&](Node n) { return nodes_[n].var == v ? nodes_[n].hi : n; };
  const Node then = ite(hi(f), hi(g), hi(h));
  if (then == kOverflow) return kOverflow;
  const Node otherwise = ite(lo(f), lo(g), lo(h));
  if (otherwise == kOverflow) return kOverflow;
  const Node result = makeNode(v, otherwise, then);
  if (result == kOverflow) return kOverflow;
  const bool transient = std::max({f, g, h, result}) >= mark_;
  entry = {f, g, h, result, transient ? epoch_ : 0};
  return result;
}

Bdd::Node Bdd::gate(std::uint8_t truth, const std::array<Node, 3>& pins) {
  return cofactors(truth, 2, pins);
}

Bdd::Node Bdd::cofactors(std::uint8_t truth, int pin,
                         const std::array<Node, 3>& pins) {
  // `truth` holds the 2^(pin + 1) entries over pins 0..pin.
  if (pin < 0) return (truth & 1u) != 0 ? kTrue : kFalse;
  const unsigned half = 1u << pin;
  const unsigned mask = (1u << half) - 1;
  const auto lo = static_cast<std::uint8_t>(truth & mask);
  const auto hi = static_cast<std::uint8_t>((truth >> half) & mask);
  if (lo == hi) return cofactors(lo, pin - 1, pins);
  const Node then = cofactors(hi, pin - 1, pins);
  const Node otherwise = cofactors(lo, pin - 1, pins);
  return ite(pins[static_cast<std::size_t>(pin)], then, otherwise);
}

void Bdd::release() noexcept {
  while (nodes_.size() > mark_) {
    const NodeRec& r = nodes_.back();
    buckets_[mix(r.var, r.lo, r.hi) % kBuckets] = r.next;
    nodes_.pop_back();
  }
  if (++epoch_ == 0) {  // wrapped: 0 would read as permanent
    std::fill(cache_.begin(), cache_.end(), CacheEntry{});
    epoch_ = 1;
  }
}

}  // namespace oisa::netlist

// oisa_netlist: a small reduced ordered binary decision diagram (ROBDD).
//
// Bryant's canonical form (IEEE TC 1986): every function over the
// variables has exactly one node, so two circuits compute the same
// function exactly when they reach the same node. The engine keeps
//
//  * a node array with a chained unique table. New nodes go to the head
//    of their chain (LIFO), so release() pops them in reverse creation
//    order and restores every chain exactly;
//  * ITE with a direct-mapped computed cache. An entry that names a node
//    at or above the mark carries the current epoch and stops matching
//    once release() bumps it, so a release never clears the table;
//  * a constant node cap (kNodeCap). An operation that would create a
//    node past it returns kOverflow, and kOverflow propagates through
//    every later operation on it.
//
// mark() and release() bracket a temporary computation: build a base (the
// good machine), mark(), then build and discard one cone at a time. The
// fault layer decides stuck-at detectability this way (fault/coverage.h).
// Variable v sits at level v: smaller indices are nearer the root.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace oisa::netlist {

class Bdd {
 public:
  using Node = std::uint32_t;
  static constexpr Node kFalse = 0;
  static constexpr Node kTrue = 1;
  /// Result of any operation that needed a node past kNodeCap.
  static constexpr Node kOverflow = 0xffffffff;
  /// Most nodes (terminals included) the diagram ever holds: 16-byte
  /// nodes, so at most 1 MB of them.
  static constexpr std::size_t kNodeCap = std::size_t{1} << 16;

  Bdd();

  /// The function x_v.
  [[nodiscard]] Node var(std::uint32_t v);
  /// if f then g else h.
  [[nodiscard]] Node ite(Node f, Node g, Node h);
  /// The gate function `truth` (bit m = f(minterm m), pin k = bit k of m,
  /// as in CompiledNetlist::GateRec) applied to `pins`. Expands by
  /// cofactors, so a pin the table does not depend on never enters it.
  [[nodiscard]] Node gate(std::uint8_t truth, const std::array<Node, 3>& pins);

  /// Nodes allocated, terminals included.
  [[nodiscard]] std::size_t nodeCount() const noexcept {
    return nodes_.size();
  }
  /// Computed-cache hits so far.
  [[nodiscard]] std::uint64_t cacheHits() const noexcept { return hits_; }

  /// Everything built from here on is temporary: release() frees it.
  void mark() noexcept { mark_ = static_cast<Node>(nodes_.size()); }
  /// Frees every node created since mark(); nodes below it, and cache
  /// entries naming only them, stay valid.
  void release() noexcept;

 private:
  struct NodeRec {
    std::uint32_t var;
    Node lo;
    Node hi;
    Node next;  ///< unique-table chain
  };
  struct CacheEntry {
    Node f = kOverflow;
    Node g = kOverflow;
    Node h = kOverflow;
    Node result = kOverflow;
    std::uint32_t epoch = 0;  ///< 0: names only nodes below the mark
  };

  [[nodiscard]] Node makeNode(std::uint32_t var, Node lo, Node hi);
  [[nodiscard]] Node cofactors(std::uint8_t truth, int pin,
                               const std::array<Node, 3>& pins);

  std::vector<NodeRec> nodes_;
  std::vector<Node> buckets_;
  std::vector<CacheEntry> cache_;
  Node mark_ = kOverflow;  ///< no mark: every node is permanent
  std::uint32_t epoch_ = 1;
  std::uint64_t hits_ = 0;
};

}  // namespace oisa::netlist

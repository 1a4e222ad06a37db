// Minimum-cost flow with node supplies — the substrate behind the paper's
// §8(3) observation that optimum balancing (minimum total FIFO buffering) is
// the linear-programming dual of a min-cost flow problem.
//
// Primal network simplex on an uncapacitated network (Ahuja, Magnanti &
// Orlin, *Network Flows*, ch. 11):
//  - the start is a strongly feasible tree of big-M artificial arcs between
//    every node and an extra root;
//  - entering arcs are priced by block search, in blocks of at least 10
//    edges and about sqrt(edges) / 8: balancing networks offer many
//    eligible edges per pivot, and on the parallel-scheme Example 1 this
//    scaled best of the factors 1, 1/2, 1/4 and 1/8;
//  - the leaving arc is the last blocking arc after the cycle's join in flow
//    order, which keeps the tree strongly feasible, so degenerate pivots
//    cannot cycle;
//  - a pivot re-hangs the cut subtree on the entering arc, splicing the
//    preorder thread along the stem only, and shifts the subtree's
//    potentials by the entering arc's reduced cost.  The shift walks the
//    smaller side: each component under the root carries a potential offset,
//    and components merge smaller into larger.
//
// Negative arc costs are admitted; a negative-cost directed cycle (flow
// without bound) breaks the caller's contract and fails a check.  The
// balancing reduction only adds zero-cost 2-cycles, for rigid arcs.
#pragma once

#include <cstdint>
#include <vector>

namespace valpipe::flow {

class MinCostFlow {
 public:
  /// Creates a network with `n` nodes, all with zero supply.
  explicit MinCostFlow(int n);

  int nodeCount() const { return static_cast<int>(supply_.size()); }

  /// Sets node `v`'s supply: positive = source of `b` units, negative = sink.
  /// Supplies must sum to zero over the whole network for feasibility.
  void setSupply(int v, std::int64_t b);
  std::int64_t supply(int v) const { return supply_[v]; }

  /// Adds an uncapacitated directed edge u->v; returns an edge id usable
  /// with flowOn().
  int addEdge(int u, int v, std::int64_t cost);

  struct Result {
    bool feasible = false;        ///< all supplies routed
    std::int64_t totalCost = 0;   ///< sum of cost * flow over edges
  };

  /// Computes a minimum-cost flow meeting all supplies.  May be called once.
  Result solve();

  /// Flow routed on edge `id` (valid after solve()).
  std::int64_t flowOn(int id) const;

  /// Optimal node potential of `v` (valid after a feasible solve()): every
  /// edge has reduced cost cost + pi[u] - pi[v] >= 0, with equality where
  /// it carries flow.
  std::int64_t potential(int v) const;

 private:
  int arcCount() const { return static_cast<int>(cost_.size()); }
  int findEntering();
  void pivot(int in);
  void shiftPotentials(int a, int b, int x, int tail, std::int64_t sigma);
  std::int64_t pi(int v) const { return rel_[v] + off_[label_[v]]; }

  std::vector<std::int64_t> supply_;
  // Edges [0, m) are the caller's; solve() appends artificial arc m + v
  // between node v and the root.
  std::vector<int> from_, to_;
  std::vector<std::int64_t> cost_, flow_;

  // The spanning tree over the nodes and the root (index nodeCount()), with
  // its preorder kept as a circular thread so that a subtree is the block
  // from its root to its last node.
  std::vector<int> parent_, pred_;  ///< tree parent, and the arc to it
  std::vector<char> up_;            ///< pred_ arc points from child to parent
  std::vector<int> thread_, revThread_;  ///< preorder successor / predecessor
  std::vector<int> size_, last_;  ///< subtree node count / last node in preorder

  // Potentials, pi(v) = rel_[v] + off_[label_[v]]: the nodes of a component
  // (the subtree of a root child) share a label, so a whole component shifts
  // by one offset.
  std::vector<std::int64_t> rel_, off_;
  std::vector<int> label_;
  std::vector<int> top_;  ///< label -> the root child of its component
  int edges_ = 0;  ///< caller's edge count m
  int blockSize_ = 0;
  int nextEdge_ = 0;  ///< where the next block search starts

  /// A node on the stem of a pivot, with its block's old bounds.
  struct Stem {
    int node, last, before, after;
  };
  std::vector<Stem> stem_;  ///< pivot scratch
  bool solved_ = false;
};

}  // namespace valpipe::flow

// Instruction-cell placement onto processing elements (Fig. 1).
//
// A static dataflow machine loads each instruction cell into one processing
// element's memory; result packets between cells in different PEs traverse
// the distribution (routing) network.  Placement therefore decides how much
// of the §2 packet traffic crosses the network, and — with a per-hop delay
// — how much latency the pipeline absorbs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dfg/graph.hpp"

namespace valpipe::machine {

struct Placement {
  int peCount = 1;
  std::vector<int> peOf;  ///< per cell (indexed by NodeId)

  int of(dfg::NodeId id) const { return peOf[id.index]; }
};

enum class PlacementStrategy {
  /// Cells scattered round-robin: balances load, maximizes network traffic.
  RoundRobin,
  /// Consecutive cells grouped: the compiler emits producers next to their
  /// consumers, so contiguous chunks keep most arcs inside one PE.
  Contiguous,
};

const char* toString(PlacementStrategy s);

/// Assigns every cell of (lowered) `g` to one of `peCount` PEs.
Placement assignCells(const dfg::Graph& g, int peCount, PlacementStrategy s);

/// Fraction of operand/gate arcs whose endpoints sit in different PEs — the
/// share of result packets that will use the distribution network.
double crossPeArcFraction(const dfg::Graph& g, const Placement& p);

}  // namespace valpipe::machine

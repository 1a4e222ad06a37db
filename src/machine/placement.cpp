#include "machine/placement.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace valpipe::machine {

const char* toString(PlacementStrategy s) {
  switch (s) {
    case PlacementStrategy::RoundRobin: return "round-robin";
    case PlacementStrategy::Contiguous: return "contiguous";
  }
  return "?";
}

Placement assignCells(const dfg::Graph& g, int peCount, PlacementStrategy s) {
  VALPIPE_CHECK(peCount >= 1);
  Placement p;
  p.peCount = peCount;
  p.peOf.resize(g.size());
  const std::size_t n = g.size();
  switch (s) {
    case PlacementStrategy::RoundRobin:
      for (std::size_t i = 0; i < n; ++i)
        p.peOf[i] = static_cast<int>(i % static_cast<std::size_t>(peCount));
      break;
    case PlacementStrategy::Contiguous: {
      const std::size_t chunk = (n + peCount - 1) / peCount;
      for (std::size_t i = 0; i < n; ++i)
        p.peOf[i] = static_cast<int>(i / std::max<std::size_t>(chunk, 1));
      break;
    }
  }
  return p;
}

double crossPeArcFraction(const dfg::Graph& g, const Placement& p) {
  std::size_t arcs = 0, cross = 0;
  for (dfg::NodeId id : g.ids()) {
    const dfg::Node& n = g.node(id);
    auto count = [&](const dfg::PortSrc& src) {
      if (!src.isArc()) return;
      ++arcs;
      if (p.of(src.producer) != p.of(id)) ++cross;
    };
    for (const dfg::PortSrc& in : n.inputs) count(in);
    if (n.gate) count(*n.gate);
  }
  return arcs == 0 ? 0.0
                   : static_cast<double>(cross) / static_cast<double>(arcs);
}

}  // namespace valpipe::machine

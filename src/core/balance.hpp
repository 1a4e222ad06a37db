// Balancing (§3, §8): insert FIFO buffering so every path between
// reconvergent cells has equal stage count, making the graph fully
// pipelinable.
//
// Depth model: d[v] is the stage at which cell v fires relative to its
// component; every operand/gate arc u -> v requires d[v] >= d[u] + len
// (len = 1, or the depth of an existing FIFO).  Arcs on for-iter cycles are
// length-fixed by construction (equality constraints, never buffered);
// loop-closing feedback arcs are excluded.  Self-timed sources float freely.
//
// Two solvers:
//   LongestPath — ASAP depths by fixed-point relaxation (the simple
//     polynomial algorithm of §8 (1)); tends to over-buffer because sources
//     are pinned at depth 0.
//   Optimal     — minimum total inserted buffering, via the min-cost-flow
//     dual of the depth LP (§8 (3)), solved by network simplex.  Of all
//     optimal depth assignments it takes the least (flow::solveDifferenceLP),
//     so the inserted FIFOs do not depend on the solver's pivot order, and
//     every component's shallowest cell sits at depth 0 by construction.
#pragma once

#include "core/compiler.hpp"
#include "dfg/graph.hpp"

namespace valpipe::core {

/// Balances `g` in place by inserting FIFO nodes on slack arcs.
/// BalanceMode::None is a no-op.  Throws on inconsistent rigid constraints.
BalanceOutcome balanceGraph(dfg::Graph& g, BalanceMode mode);

/// Total buffering a mode would insert, without mutating the graph (used by
/// the C3 balancing-cost experiment).
std::size_t plannedBuffering(const dfg::Graph& g, BalanceMode mode);

}  // namespace valpipe::core

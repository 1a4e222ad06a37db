// Linear programs over difference constraints, solved through their min-cost
// flow dual — the exact construction §8(3) of the paper alludes to for
// optimum (minimum-buffer) balancing.
//
//   minimize   sum_t  w_t * (d[v_t] - d[u_t])        (w_t >= 0)
//   subject to d[v_a] - d[u_a] >= lo_a   for every constraint a
//
// over integer stage depths d.  The dual is a min-cost flow with node
// supplies, solved by network simplex (flow/mincostflow.hpp) once pendant and
// series edges are folded away.  By complementary slackness the optimal d are
// exactly the feasible d that are tight on every constraint carrying dual
// flow, for any optimal flow; the solver returns the least of them with
// d >= 0, found by the same forward relaxation that first checks
// feasibility.  So no normalization pass is needed: the least solution
// already puts each weakly connected component's minimum at 0.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace valpipe::flow {

/// d[v] - d[u] >= lo
struct DiffConstraint {
  int u = 0;
  int v = 0;
  std::int64_t lo = 1;
};

/// Contributes w * (d[v] - d[u]) to the objective; w must be >= 0.
struct DiffObjectiveTerm {
  int u = 0;
  int v = 0;
  std::int64_t w = 1;
};

/// Solves the difference-constraint LP over `n` variables.  Returns the
/// least optimal integer assignment: among all optimal d >= 0, the smallest
/// in every coordinate.  It does not depend on which optimal dual flow the
/// solver found, and each weakly connected component has min d == 0 by
/// construction (shifting a component down would stay optimal).  Returns
/// nullopt when the primal is infeasible (a constraint cycle with positive
/// total lower bound) or unbounded (dual flow infeasible).
std::optional<std::vector<std::int64_t>> solveDifferenceLP(
    int n, const std::vector<DiffConstraint>& constraints,
    const std::vector<DiffObjectiveTerm>& objective);

}  // namespace valpipe::flow

#include "flow/difference_lp.hpp"

#include <algorithm>

#include "flow/mincostflow.hpp"
#include "support/check.hpp"

namespace valpipe::flow {

namespace {

/// Raises `d` to the least solution at or above it of d[v] >= d[u] + lo for
/// every constraint and, where `tight` is set, of d[u] >= d[v] - lo too,
/// sweeping the constraints in list order.  Returns false when n + 1 sweeps
/// do not settle: a constraint cycle with positive total lower bound.
bool relax(std::vector<std::int64_t>& d,
           const std::vector<DiffConstraint>& constraints,
           const std::vector<char>& tight) {
  const int n = static_cast<int>(d.size());
  for (int sweep = 0; sweep <= n; ++sweep) {
    bool changed = false;
    for (std::size_t i = 0; i < constraints.size(); ++i) {
      const DiffConstraint& c = constraints[i];
      if (d[c.v] < d[c.u] + c.lo) {
        d[c.v] = d[c.u] + c.lo;
        changed = true;
      }
      if (!tight.empty() && tight[i] && d[c.u] < d[c.v] - c.lo) {
        d[c.u] = d[c.v] - c.lo;
        changed = true;
      }
    }
    if (!changed) return true;
  }
  return false;
}

/// An optimal flow of the uncapacitated network with an edge u -> v of cost
/// -lo per constraint and node supplies `b`, or nullopt when no feasible flow
/// exists.  Two reductions shrink the network the simplex sees: a node with
/// one edge left fixes that edge's flow to its supply, and a node without
/// supply between one edge in and one edge out passes the same flow through
/// both, so one series edge replaces them.  Both repeat as they expose more.
std::optional<std::vector<std::int64_t>> dualFlow(
    int n, const std::vector<DiffConstraint>& cons,
    std::vector<std::int64_t> b) {
  const int m = static_cast<int>(cons.size());
  std::vector<int> from(m), to(m);
  std::vector<std::int64_t> cost(m);
  std::vector<std::vector<int>> edges(n);
  std::vector<int> deg(n, 0);
  for (int a = 0; a < m; ++a) {
    from[a] = cons[a].u;
    to[a] = cons[a].v;
    cost[a] = -cons[a].lo;
    edges[from[a]].push_back(a);
    edges[to[a]].push_back(a);
    ++deg[from[a]];
    ++deg[to[a]];
  }
  // Per edge: its fixed flow, or the series edge that replaced it, or -1.
  std::vector<std::int64_t> fixed(m, -1);
  std::vector<int> merged(m, -1);
  const auto live = [&](int a) { return fixed[a] < 0 && merged[a] < 0; };
  std::vector<int> queue;
  for (int v = 0; v < n; ++v)
    if (deg[v] <= 2) queue.push_back(v);
  while (!queue.empty()) {
    const int u = queue.back();
    queue.pop_back();
    if (deg[u] == 0 || deg[u] > 2) continue;
    int e[2] = {-1, -1};
    int found = 0;
    for (int a : edges[u])
      if (live(a) && found < 2) e[found++] = a;
    if (deg[u] == 1) {
      const int a = e[0];
      const std::int64_t y = from[a] == u ? b[u] : -b[u];
      if (y < 0) return std::nullopt;
      fixed[a] = y;
      const int v = from[a] == u ? to[a] : from[a];
      b[v] += b[u];
      b[u] = 0;
      deg[u] = 0;
      if (--deg[v] <= 2) queue.push_back(v);
      continue;
    }
    if (b[u] != 0 || (to[e[0]] == u) == (to[e[1]] == u)) continue;
    const int in = to[e[0]] == u ? e[0] : e[1];
    const int out = in == e[0] ? e[1] : e[0];
    const int p = from[in];
    const int q = to[out];
    deg[u] = 0;
    if (p == q) {  // a 2-cycle: no negative cycles, so it may carry nothing
      fixed[in] = fixed[out] = 0;
      if ((deg[p] -= 2) <= 2) queue.push_back(p);
      continue;
    }
    const int a = static_cast<int>(from.size());
    from.push_back(p);
    to.push_back(q);
    cost.push_back(cost[in] + cost[out]);
    fixed.push_back(-1);
    merged.push_back(-1);
    merged[in] = merged[out] = a;
    edges[p].push_back(a);
    edges[q].push_back(a);
  }

  // The simplex runs on what is left, renumbered.
  std::vector<int> id(n, -1);
  int nodes = 0;
  for (int v = 0; v < n; ++v)
    if (deg[v] > 0 || b[v] != 0) id[v] = nodes++;
  MinCostFlow mcf(nodes);
  for (int v = 0; v < n; ++v)
    if (id[v] >= 0) mcf.setSupply(id[v], b[v]);
  const int total = static_cast<int>(from.size());
  std::vector<int> edge(total, -1);
  for (int a = 0; a < total; ++a)
    if (live(a)) edge[a] = mcf.addEdge(id[from[a]], id[to[a]], cost[a]);
  if (!mcf.solve().feasible) return std::nullopt;

  // A series edge comes after its parts, so resolve from the last edge.
  std::vector<std::int64_t> y(total);
  for (int a = total - 1; a >= 0; --a) {
    if (fixed[a] >= 0)
      y[a] = fixed[a];
    else if (merged[a] >= 0)
      y[a] = y[merged[a]];
    else
      y[a] = mcf.flowOn(edge[a]);
  }
  y.resize(m);
  return y;
}

}  // namespace

std::optional<std::vector<std::int64_t>> solveDifferenceLP(
    int n, const std::vector<DiffConstraint>& constraints,
    const std::vector<DiffObjectiveTerm>& objective) {
  VALPIPE_CHECK(n >= 0);
  for (const auto& t : objective) VALPIPE_CHECK_MSG(t.w >= 0, "negative weight");

  // The least feasible depths >= 0; they do not settle on a positive cycle.
  std::vector<std::int64_t> d(n, 0);
  if (!relax(d, constraints, {})) return std::nullopt;

  // Dual construction.  With c_v = sum_{t: v_t == v} w_t - sum_{t: u_t == v} w_t
  // the dual is:  max sum_a lo_a * y_a   s.t.  inflow(v) - outflow(v) = c_v,
  // y >= 0, over flow arcs u_a -> v_a.  As a min-cost flow: arc cost -lo_a,
  // node supply b_v = -c_v.
  std::vector<std::int64_t> c(n, 0);
  for (const auto& t : objective) {
    c[t.v] += t.w;
    c[t.u] -= t.w;
  }
  std::vector<std::int64_t> supply(n);
  for (int v = 0; v < n; ++v) supply[v] = -c[v];
  const auto y = dualFlow(n, constraints, std::move(supply));
  if (!y) return std::nullopt;  // primal unbounded

  // Complementary slackness: a feasible d is optimal iff it is tight on every
  // constraint whose arc carries dual flow, for any one optimal flow.  So the
  // least optimal d >= 0 is canonical, and continuing the relaxation from the
  // least feasible depths with those constraints reversed reaches it.
  std::vector<char> tight(constraints.size());
  for (std::size_t a = 0; a < constraints.size(); ++a)
    tight[a] = (*y)[a] > 0;
  VALPIPE_CHECK_MSG(relax(d, constraints, tight),
                    "tight constraints of an optimal flow do not settle");

  // The certificate: d is feasible (the relaxation settled), y is a feasible
  // dual flow, and strong duality holds, so both are optimal.
  std::int64_t primal = 0;
  std::int64_t dual = 0;
  for (const auto& t : objective) primal += t.w * (d[t.v] - d[t.u]);
  for (std::size_t a = 0; a < constraints.size(); ++a) {
    dual += constraints[a].lo * (*y)[a];
    c[constraints[a].u] += (*y)[a];
    c[constraints[a].v] -= (*y)[a];
  }
  VALPIPE_CHECK_MSG(
      std::all_of(c.begin(), c.end(), [](std::int64_t r) { return r == 0; }),
      "dual flow breaks conservation");
  VALPIPE_CHECK_MSG(primal == dual,
                    "depths and dual flow disagree on the optimum");
  return d;
}

}  // namespace valpipe::flow

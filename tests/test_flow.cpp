// Unit and property tests for the min-cost-flow substrate and the
// difference-constraint LP solver (§8 (3): optimum balancing is the LP dual
// of min-cost flow).  The property suite cross-checks the LP solver against
// brute-force enumeration on small random instances, for both the optimum
// and the canonical (least) optimal assignment.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <random>

#include "flow/difference_lp.hpp"
#include "flow/mincostflow.hpp"

namespace valpipe::flow {
namespace {

TEST(MinCostFlow, SimplePath) {
  MinCostFlow mcf(3);
  mcf.setSupply(0, 5);
  mcf.setSupply(2, -5);
  const int e0 = mcf.addEdge(0, 1, 1);
  const int e1 = mcf.addEdge(1, 2, 2);
  const auto res = mcf.solve();
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.totalCost, 15);
  EXPECT_EQ(mcf.flowOn(e0), 5);
  EXPECT_EQ(mcf.flowOn(e1), 5);
}

TEST(MinCostFlow, NegativeCostsOnDag) {
  MinCostFlow mcf(3);
  mcf.setSupply(0, 2);
  mcf.setSupply(2, -2);
  const int neg = mcf.addEdge(0, 1, -3);
  mcf.addEdge(1, 2, 1);
  const int direct = mcf.addEdge(0, 2, 0);
  const auto res = mcf.solve();
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(mcf.flowOn(neg), 2);
  EXPECT_EQ(mcf.flowOn(direct), 0);
  EXPECT_EQ(res.totalCost, -4);
}

TEST(MinCostFlow, PotentialsSatisfyReducedCostOptimality) {
  MinCostFlow mcf(4);
  mcf.setSupply(0, 3);
  mcf.setSupply(3, -3);
  mcf.addEdge(0, 1, 1);  // cheap side
  mcf.addEdge(0, 2, 3);
  mcf.addEdge(1, 3, 1);
  mcf.addEdge(2, 3, 1);
  ASSERT_TRUE(mcf.solve().feasible);
  // Every arc must have non-negative reduced cost:
  // cost + pi[u] - pi[v] >= 0, i.e. pi[v] - pi[u] <= cost.
  EXPECT_LE(mcf.potential(1) - mcf.potential(0), 1);
  EXPECT_LE(mcf.potential(2) - mcf.potential(0), 3);
  EXPECT_LE(mcf.potential(3) - mcf.potential(1), 1);
  EXPECT_LE(mcf.potential(3) - mcf.potential(2), 1);
}

TEST(MinCostFlow, ZeroCostTwoCycleIsTight) {
  // The rigid-arc shape: 0 -> 1 and 1 -> 0 with opposite costs pin
  // pi[1] - pi[0] to one value in both directions.  One unit goes
  // 0 -> 1 -> 2 (cost -3) rather than 0 -> 2 (cost -1).
  MinCostFlow mcf(3);
  mcf.setSupply(0, 1);
  mcf.setSupply(2, -1);
  const int fwd = mcf.addEdge(0, 1, -2);
  const int back = mcf.addEdge(1, 0, 2);
  const int tail = mcf.addEdge(1, 2, -1);
  const int direct = mcf.addEdge(0, 2, -1);
  const auto res = mcf.solve();
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.totalCost, -3);
  EXPECT_EQ(mcf.flowOn(fwd), 1);
  EXPECT_EQ(mcf.flowOn(back), 0);
  EXPECT_EQ(mcf.flowOn(tail), 1);
  EXPECT_EQ(mcf.flowOn(direct), 0);
  EXPECT_EQ(mcf.potential(1) - mcf.potential(0), -2);  // both arcs tight
  EXPECT_EQ(mcf.potential(2) - mcf.potential(1), -1);  // carries flow
  EXPECT_LE(mcf.potential(2) - mcf.potential(0), -1);
}

TEST(DifferenceLP, ChainTightens) {
  // d1 - d0 >= 1, d2 - d1 >= 1, minimize (d2 - d0): optimum 2.
  const auto d = solveDifferenceLP(
      3, {{0, 1, 1}, {1, 2, 1}}, {{0, 2, 1}});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ((*d)[2] - (*d)[0], 2);
  EXPECT_GE((*d)[1] - (*d)[0], 1);
}

TEST(DifferenceLP, InfeasiblePositiveCycle) {
  // d1 >= d0 + 1 and d0 >= d1 + 1 is unsatisfiable.
  EXPECT_FALSE(
      solveDifferenceLP(2, {{0, 1, 1}, {1, 0, 1}}, {}).has_value());
}

TEST(DifferenceLP, EqualityViaOpposingConstraints) {
  const auto d = solveDifferenceLP(
      3, {{0, 1, 2}, {1, 0, -2}, {1, 2, 1}}, {{0, 2, 1}});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ((*d)[1] - (*d)[0], 2);
  EXPECT_EQ((*d)[2] - (*d)[0], 3);
}

TEST(DifferenceLP, DiamondPrefersCheapSide) {
  // Diamond 0->1->3, 0->2->3; objective weights make buffering on one side
  // cheaper; the optimum puts required slack where it is free.
  //   constraints: d1>=d0+1, d3>=d1+1, d2>=d0+3, d3>=d2+1
  //   objective: minimize slack on all four arcs equally.
  const auto d = solveDifferenceLP(4,
                                   {{0, 1, 1}, {1, 3, 1}, {0, 2, 3}, {2, 3, 1}},
                                   {{0, 1, 1}, {1, 3, 1}, {0, 2, 1}, {2, 3, 1}});
  ASSERT_TRUE(d.has_value());
  std::int64_t total = ((*d)[1] - (*d)[0] - 1) + ((*d)[3] - (*d)[1] - 1) +
                       ((*d)[2] - (*d)[0] - 3) + ((*d)[3] - (*d)[2] - 1);
  EXPECT_EQ(total, 2);  // the unavoidable mismatch of the two sides
}

// Property: LP solution matches brute force on random small instances.
class DiffLpProperty : public ::testing::TestWithParam<int> {};

TEST_P(DiffLpProperty, MatchesBruteForce) {
  std::mt19937 rng(GetParam() * 7919 + 13);
  const int n = 3 + static_cast<int>(rng() % 3);  // 3..5 variables
  std::vector<DiffConstraint> cons;
  std::vector<DiffObjectiveTerm> obj;
  // Random DAG constraints u < v so no positive cycles; lo in {-1..2}.
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v) {
      if (rng() % 2 == 0) continue;
      const std::int64_t lo = static_cast<std::int64_t>(rng() % 4) - 1;
      cons.push_back({u, v, lo});
      if (rng() % 2 == 0) obj.push_back({u, v, static_cast<std::int64_t>(rng() % 3)});
    }

  const auto lp = solveDifferenceLP(n, cons, obj);
  ASSERT_TRUE(lp.has_value());

  auto objective = [&](const std::vector<std::int64_t>& d) {
    std::int64_t s = 0;
    for (const auto& t : obj) s += t.w * (d[t.v] - d[t.u]);
    return s;
  };
  auto feasible = [&](const std::vector<std::int64_t>& d) {
    for (const auto& c : cons)
      if (d[c.v] - d[c.u] < c.lo) return false;
    return true;
  };
  ASSERT_TRUE(feasible(*lp));

  // Brute force over a small box (optimal depths fit in [0, 3n] here since
  // lo <= 2 and chains are short).
  const std::int64_t box = 8;
  std::vector<std::int64_t> d(n, 0);
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  std::function<void(int)> enumerate = [&](int v) {
    if (v == n) {
      if (feasible(d)) best = std::min(best, objective(d));
      return;
    }
    for (std::int64_t x = -box; x <= box; ++x) {
      d[v] = x;
      enumerate(v + 1);
    }
  };
  enumerate(0);
  ASSERT_NE(best, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(objective(*lp), best);

  // The solver returns the least optimal assignment: the coordinate-wise
  // minimum over every optimal d >= 0 (the least one lies in [0, box] too).
  std::vector<std::int64_t> least(n, box + 1);
  std::function<void(int)> enumerateLeast = [&](int v) {
    if (v == n) {
      if (feasible(d) && objective(d) == best)
        for (int u = 0; u < n; ++u) least[u] = std::min(least[u], d[u]);
      return;
    }
    for (std::int64_t x = 0; x <= box; ++x) {
      d[v] = x;
      enumerateLeast(v + 1);
    }
  };
  enumerateLeast(0);
  EXPECT_EQ(*lp, least);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffLpProperty, ::testing::Range(0, 30));

}  // namespace
}  // namespace valpipe::flow

#include "flow/mincostflow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace valpipe::flow {

MinCostFlow::MinCostFlow(int n) : supply_(n, 0) {}

void MinCostFlow::setSupply(int v, std::int64_t b) {
  VALPIPE_CHECK(!solved_);
  supply_[v] = b;
}

int MinCostFlow::addEdge(int u, int v, std::int64_t cost) {
  VALPIPE_CHECK(!solved_);
  VALPIPE_CHECK(u >= 0 && u < nodeCount() && v >= 0 && v < nodeCount());
  from_.push_back(u);
  to_.push_back(v);
  cost_.push_back(cost);
  return arcCount() - 1;
}

MinCostFlow::Result MinCostFlow::solve() {
  VALPIPE_CHECK(!solved_);
  solved_ = true;
  const int n = nodeCount();
  const int root = n;
  edges_ = arcCount();
  flow_.assign(edges_, 0);

  // Big-M: an artificial arc costs more than any simple path of real edges,
  // so an optimum routes flow through the root only when no feasible flow
  // exists.
  std::int64_t maxCost = 0;
  for (std::int64_t c : cost_) maxCost = std::max(maxCost, c < 0 ? -c : c);
  const std::int64_t bigM = (static_cast<std::int64_t>(n) + 1) * (maxCost + 1);

  // Node v hangs from the root by an artificial arc carrying its supply,
  // pointing to the root when the supply is >= 0 and away from it otherwise.
  // Every zero-flow arc then points to the root: the tree is strongly
  // feasible.  The preorder thread runs root, 0, 1, ..., n - 1, and every
  // node is a component of its own.
  parent_.assign(n + 1, root);
  pred_.assign(n + 1, -1);
  up_.assign(n + 1, 0);
  size_.assign(n + 1, 1);
  thread_.resize(n + 1);
  revThread_.resize(n + 1);
  last_.resize(n + 1);
  rel_.assign(n, 0);
  off_.resize(n);
  label_.resize(n);
  top_.resize(n);
  parent_[root] = -1;
  size_[root] = n + 1;
  for (int v = 0; v <= n; ++v) {
    thread_[v] = (v + 1) % (n + 1);
    revThread_[v] = (v + n) % (n + 1);
    last_[v] = v;
  }
  last_[root] = revThread_[root];
  for (int v = 0; v < n; ++v) {
    const bool toRoot = supply_[v] >= 0;
    from_.push_back(toRoot ? v : root);
    to_.push_back(toRoot ? root : v);
    cost_.push_back(bigM);
    flow_.push_back(toRoot ? supply_[v] : -supply_[v]);
    pred_[v] = edges_ + v;
    up_[v] = toRoot;
    off_[v] = toRoot ? -bigM : bigM;
    label_[v] = top_[v] = v;
  }

  blockSize_ = std::max(
      10, static_cast<int>(std::sqrt(static_cast<double>(edges_)) / 8));
  for (int in = findEntering(); in >= 0; in = findEntering()) pivot(in);

  Result res;
  res.feasible = true;
  for (int v = 0; v < n; ++v)
    if (flow_[edges_ + v] != 0) res.feasible = false;
  for (int e = 0; e < edges_; ++e) res.totalCost += cost_[e] * flow_[e];
  return res;
}

int MinCostFlow::findEntering() {
  // Block search: the most negative reduced cost within the first block
  // (resuming where the last search stopped) that has one.
  std::int64_t best = 0;
  int in = -1;
  int e = nextEdge_;
  for (int k = 0, left = blockSize_; k < edges_; ++k) {
    const std::int64_t rc = cost_[e] + pi(from_[e]) - pi(to_[e]);
    if (rc < best) {
      best = rc;
      in = e;
    }
    if (++e == edges_) e = 0;
    if (--left == 0) {
      if (in >= 0) break;
      left = blockSize_;
    }
  }
  nextEdge_ = e;
  return in;
}

void MinCostFlow::pivot(int in) {
  const int k = from_[in];
  const int l = to_[in];
  int join = k;
  for (int other = l; join != other;) {
    if (size_[join] < size_[other])
      join = parent_[join];
    else
      other = parent_[other];
  }

  // Flow goes round the cycle join -> ... -> k -> l -> ... -> join.  Edges
  // are uncapacitated, so only tree arcs pointing against that direction
  // block.  The leaving arc is the last blocking one after the join: ties go
  // to the l side, and there to the arc nearest the join; on the k side to
  // the arc nearest k.
  std::int64_t delta = std::numeric_limits<std::int64_t>::max();
  int out = -1;  // the child end of the leaving arc
  bool outOnK = false;
  for (int u = k; u != join; u = parent_[u])
    if (up_[u] && flow_[pred_[u]] < delta) {
      delta = flow_[pred_[u]];
      out = u;
      outOnK = true;
    }
  for (int u = l; u != join; u = parent_[u])
    if (!up_[u] && flow_[pred_[u]] <= delta) {
      delta = flow_[pred_[u]];
      out = u;
      outOnK = false;
    }
  VALPIPE_CHECK_MSG(out >= 0, "negative-cost cycle of unbounded flow");

  if (delta > 0) {
    flow_[in] += delta;
    for (int u = k; u != join; u = parent_[u])
      flow_[pred_[u]] += up_[u] ? -delta : delta;
    for (int u = l; u != join; u = parent_[u])
      flow_[pred_[u]] += up_[u] ? delta : -delta;
  }

  // Cutting the leaving arc detaches the subtree S of `out`; it re-hangs
  // from y by the entering arc, re-rooted at x, its end of that arc.  Its
  // potentials shift by sigma, which makes the entering arc's reduced cost 0.
  const int x = outOnK ? k : l;
  const int y = outOnK ? l : k;
  const std::int64_t rc = cost_[in] + pi(k) - pi(l);
  const std::int64_t sigma = outOnK ? -rc : rc;
  const int s = size_[out];
  for (int u = parent_[out]; u != join; u = parent_[u]) size_[u] -= s;
  for (int u = y; u != join; u = parent_[u]) size_[u] += s;

  // The stem x = x0, x1 = parent(x0), ..., out, with each block's old
  // bounds: the thread is spliced below before any of them is read again.
  stem_.clear();
  for (int u = x;; u = parent_[u]) {
    stem_.push_back({u, last_[u], revThread_[u], thread_[last_[u]]});
    if (u == out) break;
  }
  const auto link = [this](int a, int b) {
    thread_[a] = b;
    revThread_[b] = a;
  };

  // New preorder of S: x0's block, then for each later stem node its old
  // block without the block of the stem node below it (the part before that
  // block, then the part after it).  The stem node below becomes its last
  // child, so every stem node's new block ends where S's does.
  int tail = stem_[0].last;
  for (std::size_t i = 1; i < stem_.size(); ++i) {
    const Stem& below = stem_[i - 1];
    link(tail, stem_[i].node);
    tail = below.before;
    if (below.last != stem_[i].last) {
      link(tail, below.after);
      tail = stem_[i].last;
    }
  }

  // Move S's block to right after y, making x y's first child.
  const Stem& top = stem_.back();
  link(top.before, top.after);
  const int next = thread_[y];
  link(y, x);
  link(tail, next);
  for (int u = parent_[out]; u != -1 && last_[u] == top.last; u = parent_[u])
    last_[u] = top.before;
  for (int u = y; u != -1 && last_[u] == y; u = parent_[u]) last_[u] = tail;

  // Reverse the stem's parent links and hang x from y.
  int newParent = y;
  int newPred = in;
  bool newUp = outOnK;  // x == k: the entering arc points from x to y
  int belowOld = 0;     // old subtree size of the stem node below
  for (const Stem& st : stem_) {
    const int u = st.node;
    const int oldPred = pred_[u];
    const bool oldUp = up_[u];
    parent_[u] = newParent;
    pred_[u] = newPred;
    up_[u] = newUp;
    const int oldSize = size_[u];
    size_[u] = s - belowOld;
    last_[u] = tail;
    newParent = u;
    newPred = oldPred;
    newUp = !oldUp;
    belowOld = oldSize;
  }

  shiftPotentials(label_[out], label_[y], x, tail, sigma);
}

void MinCostFlow::shiftPotentials(int a, int b, int x, int tail,
                                  std::int64_t sigma) {
  // S, now the block from x to tail, moves from component a to component b
  // (the same one when the cycle missed the root).  Each walk below visits
  // the smaller of two sides, and components merge smaller into larger.
  const int s = size_[x];
  const auto forS = [&](auto&& f) {
    for (int i = 0, u = x; i < s; ++i, u = thread_[u]) f(u);
  };
  const auto forBlockBesidesS = [&](int first, auto&& f) {
    for (int u = first, end = thread_[last_[first]]; u != end;) {
      if (u == x) {
        u = thread_[tail];
        continue;
      }
      f(u);
      u = thread_[u];
    }
  };

  if (a == b) {
    if (2 * s <= size_[top_[a]]) {
      forS([&](int u) { rel_[u] += sigma; });
    } else {
      off_[a] += sigma;
      forBlockBesidesS(top_[a], [&](int u) { rel_[u] -= sigma; });
    }
    return;
  }

  if (parent_[top_[a]] == nodeCount()) {
    // Component a keeps the rest of its nodes.  Move S alone, or give the
    // rest a fresh label so that label a holds S alone.
    if (s <= size_[top_[a]]) {
      forS([&](int u) {
        rel_[u] += off_[a] + sigma - off_[b];
        label_[u] = b;
      });
      return;
    }
    const int fresh = static_cast<int>(off_.size());
    off_.push_back(off_[a]);
    top_.push_back(top_[a]);
    forBlockBesidesS(top_[a], [&](int u) { label_[u] = fresh; });
  }

  // Label a is exactly S: shift it, then merge it with b, relabelling the
  // smaller of the two.
  off_[a] += sigma;
  const int topB = top_[b];
  if (s <= size_[topB] - s) {
    forS([&](int u) {
      rel_[u] += off_[a] - off_[b];
      label_[u] = b;
    });
  } else {
    forBlockBesidesS(topB, [&](int u) {
      rel_[u] += off_[b] - off_[a];
      label_[u] = a;
    });
    top_[a] = topB;
  }
}

std::int64_t MinCostFlow::flowOn(int id) const {
  VALPIPE_CHECK(solved_ && id >= 0 && id < edges_);
  return flow_[id];
}

std::int64_t MinCostFlow::potential(int v) const {
  VALPIPE_CHECK(solved_);
  return pi(v);
}

}  // namespace valpipe::flow

#include "sched/steady_loop.hpp"

#include <cmath>

#include "support/check.hpp"

namespace valpipe::sched {

namespace {

/// Ops whose real-valued ops:: branch is the plain double expression the
/// vectorized loop uses (value.cpp).  Div is NOT here: ops::div throws on
/// 0.0 where raw doubles would yield inf.
bool fastOp(dfg::Op op) {
  using dfg::Op;
  switch (op) {
    case Op::Id:
    case Op::Fifo:
    case Op::Neg:
    case Op::Abs:
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Min:
    case Op::Max: return true;
    default: return false;
  }
}

}  // namespace

SteadyLoop::SteadyLoop(const exec::ExecutableGraph& eg,
                       const SteadySchedule& sched)
    : eg_(eg), sched_(sched) {
  VALPIPE_CHECK_MSG(sched.accepted && sched.path == ValuePath::SteadyLoop,
                    "SteadyLoop requires a straight-line schedule");
  sourceData_.assign(eg.size(), nullptr);
  lo_.assign(eg.size(), 0);
  hi_.assign(eg.size(), -1);  // lo > hi => nothing requested
  dblock_.resize(eg.size());
}

void SteadyLoop::bindSource(std::uint32_t c, const std::vector<Value>* data) {
  sourceData_[c] = data;
}

void SteadyLoop::request(std::uint32_t c, std::int64_t lo, std::int64_t hi) {
  if (lo >= hi) return;
  if (lo_[c] > hi_[c]) {
    lo_[c] = lo;
    hi_[c] = hi;
  } else {
    lo_[c] = std::min(lo_[c], lo);
    hi_[c] = std::max(hi_[c], hi);
  }
}

bool SteadyLoop::fastPathEligible() const {
  // Inductively prove every needed value real (file comment): real sources
  // and real literals stay real through the fast ops; anything else (bool /
  // integer sequences, comparisons, Div, Mod, ...) is left to the replay.
  std::vector<char> realOut(eg_.size(), 0);
  for (std::uint32_t c : sched_.topo) {
    const exec::Cell& cell = eg_.cell(c);
    if (dfg::isSource(cell.op)) {
      if (cell.op != dfg::Op::Input || sourceData_[c] == nullptr) continue;
      const std::vector<Value>& data = *sourceData_[c];
      if (data.size() < static_cast<std::size_t>(cell.tokensPerWave)) continue;
      bool allReal = true;
      for (std::int64_t j = 0; j < cell.tokensPerWave && allReal; ++j)
        allReal = data[static_cast<std::size_t>(j)].isReal();
      realOut[c] = allReal;
      continue;
    }
    if (!fastOp(cell.op)) continue;
    bool ok = true;
    for (int p = 0; p < cell.numPorts && ok; ++p) {
      const exec::Operand& o = eg_.operand(cell, p);
      ok = o.isLiteral() ? o.literal.isReal() : realOut[o.producer] != 0;
    }
    realOut[c] = ok;
  }
  for (std::uint32_t c = 0; c < eg_.size(); ++c)
    if (lo_[c] <= hi_[c] - 1 && !realOut[c]) return false;
  return true;
}

bool SteadyLoop::compute() {
  // Widen every ancestor's hull: the k-th firing consumes token k of each
  // operand producer, so a needed range propagates upward unchanged.
  for (auto it = sched_.topo.rbegin(); it != sched_.topo.rend(); ++it) {
    const std::uint32_t c = *it;
    if (lo_[c] > hi_[c]) continue;
    const exec::Cell& cell = eg_.cell(c);
    for (int p = 0; p < cell.numPorts; ++p) {
      const exec::Operand& o = eg_.operand(cell, p);
      if (!o.isLiteral()) request(o.producer, lo_[c], hi_[c]);
    }
  }
  vectorized_ = fastPathEligible();
  if (vectorized_) computeVectorized();
  return vectorized_;
}

void SteadyLoop::computeVectorized() {
  // Straight-line per-cell loops over contiguous double blocks — the
  // compiler auto-vectorizes these.  Each expression mirrors the real
  // branch of the matching ops:: routine exactly (value.cpp).
  for (std::uint32_t c : sched_.topo) {
    if (lo_[c] > hi_[c]) continue;
    const exec::Cell& cell = eg_.cell(c);
    const std::int64_t lo = lo_[c], hi = hi_[c];
    const std::size_t n = static_cast<std::size_t>(hi - lo);
    std::vector<double>& out = dblock_[c];
    out.resize(n);
    if (cell.op == dfg::Op::Input) {
      const std::vector<Value>& data = *sourceData_[c];
      // Wrap by counting instead of a per-element modulo.
      std::size_t j = static_cast<std::size_t>(lo % cell.tokensPerWave);
      const std::size_t wave = static_cast<std::size_t>(cell.tokensPerWave);
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = data[j].asReal();
        if (++j == wave) j = 0;
      }
      continue;
    }
    // Operand fetch: offset view into the producer's block (its hull
    // contains ours by propagation), or a literal broadcast into scratch so
    // every op loop below reads plain contiguous pointers.
    const double* a = nullptr;
    const double* b = nullptr;
    if (cell.numPorts >= 1) {
      const exec::Operand& o = eg_.operand(cell, 0);
      if (o.isLiteral()) {
        scratch0_.assign(n, o.literal.asReal());
        a = scratch0_.data();
      } else {
        a = dblock_[o.producer].data() + (lo - lo_[o.producer]);
      }
    }
    if (cell.numPorts >= 2) {
      const exec::Operand& o = eg_.operand(cell, 1);
      if (o.isLiteral()) {
        scratch1_.assign(n, o.literal.asReal());
        b = scratch1_.data();
      } else {
        b = dblock_[o.producer].data() + (lo - lo_[o.producer]);
      }
    }
    switch (cell.op) {
      case dfg::Op::Id:
      case dfg::Op::Fifo:
        for (std::size_t i = 0; i < n; ++i) out[i] = a[i];
        break;
      case dfg::Op::Neg:
        for (std::size_t i = 0; i < n; ++i) out[i] = -a[i];
        break;
      case dfg::Op::Abs:
        for (std::size_t i = 0; i < n; ++i) out[i] = std::fabs(a[i]);
        break;
      case dfg::Op::Add:
        for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
        break;
      case dfg::Op::Sub:
        for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
        break;
      case dfg::Op::Mul:
        for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
        break;
      case dfg::Op::Min:
        for (std::size_t i = 0; i < n; ++i)
          out[i] = a[i] < b[i] ? a[i] : b[i];
        break;
      case dfg::Op::Max:
        for (std::size_t i = 0; i < n; ++i)
          out[i] = a[i] > b[i] ? a[i] : b[i];
        break;
      default: VALPIPE_UNREACHABLE("op not in the vectorized set");
    }
  }
}

Value SteadyLoop::value(std::uint32_t c, std::int64_t k) const {
  VALPIPE_CHECK_MSG(vectorized_, "SteadyLoop::value without a computed loop");
  VALPIPE_CHECK_MSG(lo_[c] <= k && k < hi_[c], "token index outside computed hull");
  return Value(dblock_[c][static_cast<std::size_t>(k - lo_[c])]);
}

}  // namespace valpipe::sched

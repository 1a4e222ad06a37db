#include "sched/steady_loop.hpp"

#include <cmath>

#include "exec/ops.hpp"
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
  VALPIPE_CHECK_MSG(sched.accepted, "SteadyLoop requires an accepted schedule");
  sourceData_.assign(eg.size(), nullptr);
  lo_.assign(eg.size(), 0);
  hi_.assign(eg.size(), -1);  // lo > hi => nothing requested
  block_.resize(eg.size());
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

Value SteadyLoop::sourceValue(std::uint32_t c, std::int64_t k) const {
  // Mirrors detail::SingleEngine::sourceValue for the accepted source ops.
  const exec::Cell& cell = eg_.cell(c);
  const std::int64_t j = k % cell.tokensPerWave;
  switch (cell.op) {
    case dfg::Op::Input: {
      VALPIPE_CHECK_MSG(sourceData_[c] != nullptr, "unbound Input stream");
      return (*sourceData_[c])[static_cast<std::size_t>(j)];
    }
    case dfg::Op::BoolSeq: return Value(eg_.patternBit(cell, j));
    case dfg::Op::IndexSeq: {
      const std::int64_t span = cell.seqHi - cell.seqLo + 1;
      return Value(cell.seqLo + (j / cell.seqRepeat) % span);
    }
    default: VALPIPE_UNREACHABLE("not an accepted source op");
  }
}

bool SteadyLoop::fastPathEligible() const {
  // Inductively prove every needed value real (file comment): real sources
  // and real literals stay real through the fast ops; anything else (bool /
  // integer sequences, comparisons, Div, Mod, ...) falls back to the
  // generic Value path.
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

void SteadyLoop::compute() {
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
  else computeGeneric();
  computed_ = true;
}

void SteadyLoop::computeGeneric() {
  for (std::uint32_t c : sched_.topo) {
    if (lo_[c] > hi_[c]) continue;
    const exec::Cell& cell = eg_.cell(c);
    const std::int64_t lo = lo_[c], hi = hi_[c];
    std::vector<Value>& out = block_[c];
    out.resize(static_cast<std::size_t>(hi - lo));
    if (dfg::isSource(cell.op)) {
      for (std::int64_t k = lo; k < hi; ++k)
        out[static_cast<std::size_t>(k - lo)] = sourceValue(c, k);
      continue;
    }
    for (std::int64_t k = lo; k < hi; ++k) {
      out[static_cast<std::size_t>(k - lo)] =
          exec::applyPure(cell.op, [&](int p) -> const Value& {
            const exec::Operand& o = eg_.operand(cell, p);
            if (o.isLiteral()) return o.literal;
            return block_[o.producer][static_cast<std::size_t>(k - lo_[o.producer])];
          });
    }
  }
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
  VALPIPE_CHECK_MSG(computed_, "SteadyLoop::value before compute()");
  VALPIPE_CHECK_MSG(lo_[c] <= k && k < hi_[c], "token index outside computed hull");
  const std::size_t i = static_cast<std::size_t>(k - lo_[c]);
  return vectorized_ ? Value(dblock_[c][i]) : block_[c][i];
}

}  // namespace valpipe::sched

// Straight-line steady-state value loop over an accepted SteadySchedule.
//
// In steady state every cell of an accepted graph fires once per hyper-period
// and every arc carries tokens strictly in order, so the k-th firing of a
// cell consumes exactly the k-th token of each operand producer (a composite
// FIFO is the identity on token indices).  Values are therefore *elementwise
// in the token index*: the whole timed simulation collapses, value-wise, to
//
//   for k in [lo, hi): val[c][k] = op(val[p0][k], ..., literals)
//
// evaluated in the schedule's topological order — no time wheel, no ready
// queue, no acknowledge traffic.  SchedulerKind::Compiled uses this loop to
// reconstruct, in bulk, every value the event engine would have produced
// across the hyper-periods it skips on a straight-line graph: output-stream
// appends, slot occupants and FIFO ring contents at the jump target.
//
// Bit-identity contract: the loop runs on raw double blocks and only when a
// pre-pass proves every needed value is real and every needed op is one
// whose ops:: real branch is the plain double expression (add/sub/mul/neg/
// abs/min/max and the identity ops); Div is excluded (ops::div throws on 0.0
// where doubles yield inf), as is everything integer, boolean or
// comparison-typed.  Anything else is left to the compiled scheduler's
// window replay, which runs the engines' own exec::applyPure.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/executable_graph.hpp"
#include "sched/schedule.hpp"
#include "support/value.hpp"

namespace valpipe::sched {

/// Bulk token-value evaluator for an accepted schedule (file comment).
/// Usage: bind sources, request() index ranges, compute(), then value().
class SteadyLoop {
 public:
  SteadyLoop(const exec::ExecutableGraph& eg, const SteadySchedule& sched);

  /// Binds the host stream feeding Input cell `c` (token k reads element
  /// k % tokensPerWave, as in the engines).  BoolSeq/IndexSeq sources need
  /// no binding; their sequences are generated from the cell attributes.
  void bindSource(std::uint32_t c, const std::vector<Value>* data);

  /// Requests tokens [lo, hi) of cell `c`.  Ranges widen to their hull and
  /// propagate to every ancestor, so only indices a real run would actually
  /// produce may be requested (phantom evaluation could throw spuriously).
  void request(std::uint32_t c, std::int64_t lo, std::int64_t hi);

  /// Evaluates all requested ranges when the all-real proof (file comment)
  /// holds and returns true; otherwise computes nothing and returns false.
  bool compute();

  /// Token `k` of cell `c`; only valid after compute() for requested (or
  /// ancestor-propagated) indices.
  Value value(std::uint32_t c, std::int64_t k) const;

  /// Bulk read: the block of cell `c` positioned at token `lo`.  Valid for
  /// the same index range as value(); the caller indexes relative to `lo`.
  const double* realBlock(std::uint32_t c, std::int64_t lo) const {
    return dblock_[c].data() + (lo - lo_[c]);
  }

  /// True when the last compute() evaluated the requested ranges.
  bool vectorized() const { return vectorized_; }

 private:
  bool fastPathEligible() const;
  void computeVectorized();

  const exec::ExecutableGraph& eg_;
  const SteadySchedule& sched_;
  std::vector<const std::vector<Value>*> sourceData_;
  std::vector<std::int64_t> lo_, hi_;  ///< per-cell requested hull, lo>hi none
  std::vector<std::vector<double>> dblock_; ///< per-cell results
  std::vector<double> scratch0_, scratch1_; ///< literal broadcast buffers
  bool vectorized_ = false;
};

}  // namespace valpipe::sched

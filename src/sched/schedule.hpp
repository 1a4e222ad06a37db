// Static-schedule IR of the compiled steady-state backend (§3).
//
// The paper's central observation is that a *balanced* data flow graph needs
// no runtime scheduling at all: every cell fires once per hyper-period (two
// instruction times under the unit profile — one forward result hop plus one
// backward acknowledge hop), and which instruction time within the period a
// cell fires at is fixed by its pipeline depth.  The schedulers in
// src/machine rediscover that schedule token by token; SteadySchedule records
// it once, at compile/inspect time, from the same structural facts the
// balancer and opt::fuseFifos derive:
//
//   slot[c]      — the cell's ASAP pipeline depth: the instruction-time
//                  offset (in stage periods) of its first steady firing
//                  relative to the sources.  A composite FIFO of depth k
//                  occupies k consecutive slots (its fused Id chain);
//   phase[c]     — slot[c] mod hyperPeriod: which half of the period the
//                  cell fires in once the pipe is full;
//   arcOffset[s] — per operand arc, the steady-state buffer offset: how many
//                  firings the consumer's token index trails the producer's
//                  (1 for a plain arc, k across a depth-k FIFO).  In steady
//                  state this is exactly the token population of the arc;
//   topo         — a topological order of the cells, the straight-line
//                  evaluation order of the steady-state value loop
//                  (sched/steady_loop.hpp).
//
// Acceptance is a property of where control comes from, not of which
// opcodes appear.  The paper drives every gate and merge of a pipe-structured
// program from compile-time boolean sequences (§5 selection, §6 boundary
// merge, §7 loop control), so inside a wave the machine repeats one period.
// A graph is accepted unless
//
//   - it has array-memory traffic (AmStore/AmFetch availability depends on
//     the run), or
//   - a control port — a gate port, or port 0 of a Merge — has a backward
//     operand cone that reaches an Input: its routing then follows the data
//     (§5's data-dependent conditional, fig5).
//
// Accepted graphs split by value path.  A straight-line graph (no gates,
// merges, feedback, initial tokens or imbalance) gets the slot table above,
// and the compiled scheduler reconstructs skipped values elementwise with
// sched::SteadyLoop.  Every other accepted graph takes the replay path: the
// scheduler records one steady window's firings and replays them, value by
// value, for each window it skips (machine/engine_compiled.cpp); `detail`
// names the construct that needs it and `controlSlots` lists the ports the
// replay checks.
//
// The IR is a *certificate*, not an oracle: the runtime detector
// independently verifies the machine state really has become periodic
// before skipping ahead, and the replay checks every control value a jump
// relies on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/executable_graph.hpp"

namespace valpipe::sched {

/// Why a graph has no static steady schedule.
enum class Decline : std::uint8_t {
  None,                  ///< accepted
  ArrayMemory,           ///< AmStore/AmFetch availability is data-dependent
  DataDependentControl,  ///< a gate or merge control is computed from input
};

const char* declineName(Decline d);

/// How the compiled scheduler reconstructs the values of skipped windows.
enum class ValuePath : std::uint8_t {
  SteadyLoop,  ///< straight-line graph: elementwise in the token index
  Replay,      ///< compile-time control: replay the recorded steady window
};

const char* valuePathName(ValuePath p);

/// The static steady-state schedule of an accepted graph (file comment).
struct SteadySchedule {
  bool accepted = false;
  Decline decline = Decline::None;
  ValuePath path = ValuePath::SteadyLoop;
  /// Declined: the cell whose control reaches an input.  Replay: the
  /// construct that rules out the straight-line loop.  "" otherwise.
  std::string detail;

  /// Stage period under the unit timing profile: one result hop forward plus
  /// one acknowledge hop backward — the §3 maximum-repetition-rate bound of
  /// one firing per two instruction times.  Other profiles stretch the
  /// period; the runtime detector measures the actual one.
  std::int64_t hyperPeriod = 2;
  std::int64_t depthMax = 0;  ///< pipeline fill depth in stages

  // Per-cell / per-operand-slot facts of the straight-line path; empty
  // otherwise.
  std::vector<std::int64_t> slot;       ///< per cell: ASAP firing slot
  std::vector<std::int32_t> phase;      ///< per cell: slot % hyperPeriod
  std::vector<std::int64_t> arcOffset;  ///< per flat operand slot (0=literal)
  std::vector<std::uint32_t> topo;      ///< straight-line evaluation order

  /// Replay path: flat slot of every control port (gate ports and merge
  /// selectors), in cell order.
  std::vector<std::uint32_t> controlSlots;

  /// The --explain-schedule dump: the class, then the slot table
  /// (straight-line), the control ports and their sources (replay), or the
  /// decline reason.
  std::string explain(const exec::ExecutableGraph& eg) const;
};

/// Computes the steady schedule of `eg`, or the structured decline.  Pure
/// graph analysis, linear in the graph: no timing profile, no input data.
SteadySchedule computeSteadySchedule(const exec::ExecutableGraph& eg);

}  // namespace valpipe::sched

// Shared run-API vocabulary of the execution engines.
//
// The untimed Kahn interpreter (sim::interpret) and the timed machine
// simulator (machine::simulate) accept the same input/output currency: named
// scalar streams, pre-loaded array-memory regions, a wave count, and runaway
// guards.  Both engines' option structs build on this header so callers can
// prepare one set of streams/options and hand it to either engine.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/value.hpp"

namespace valpipe::obs {
class TraceSink;
class MetricsSink;
}  // namespace valpipe::obs

namespace valpipe::fault {
struct Plan;
}

namespace valpipe::recover {
struct Snapshot;
class CheckpointLog;
}  // namespace valpipe::recover

namespace valpipe::run {

/// Named streams: one wave of each array, least index first.
using StreamMap = std::map<std::string, std::vector<Value>>;

/// Options every engine understands.  Engine-specific option structs
/// (machine::RunOptions) extend this; the untimed interpreter consumes it
/// directly.
struct RunOptions {
  int waves = 1;  ///< how many array instances to stream through the graph

  /// Pre-loaded array-memory contents (regions AmFetch cells read).
  StreamMap amInitial;

  /// Runaway guard of the untimed interpreter (firings are its only clock).
  std::uint64_t maxFirings = 50'000'000;

  /// Runaway guard of the timed simulator, in instruction times.
  std::int64_t maxCycles = 100'000'000;

  /// Hard cap on the run length, in instruction times (firings for the
  /// untimed interpreter).  Unlike maxFirings/maxCycles — which end the run
  /// quietly with whatever completed — reaching this cap with outputs still
  /// incomplete throws run::StallError carrying a diagnosis.  0 = off.
  std::int64_t maxInstructionTimes = 0;

  /// Stall watchdog of the timed engines: if no cell fires for this many
  /// instruction times while outputs are incomplete, abort with a
  /// run::StallError diagnosing which cells wait on what.  0 = off.
  std::int64_t watchdog = 0;

  /// Deterministic fault-injection plan (src/fault/), honored by the timed
  /// machine engines.  Non-owning; null means off at zero cost.
  const fault::Plan* faults = nullptr;

  /// Runtime invariant guards (src/guard/), honored by the timed machine
  /// engines: when set, every invariant is checked on every packet event.
  /// Off costs nothing measurable.
  bool guards = false;

  /// Observability sinks (src/obs/), honored by the timed machine engines
  /// and ignored by the untimed interpreter (it has no instruction-time
  /// axis).  Non-owning; null means off, and off costs nothing measurable.
  obs::TraceSink* trace = nullptr;      ///< firing-level event capture
  obs::MetricsSink* metrics = nullptr;  ///< firing counts / gaps / occupancy

  /// Checkpoint cadence of the timed machine engines, in instruction times:
  /// every `checkpointEvery` times the engine captures a recover::Snapshot
  /// of its complete state into `checkpoints`.  0 = off; ignored when
  /// `checkpoints` is null.  The untimed interpreter has no instruction-time
  /// axis and ignores both.
  std::int64_t checkpointEvery = 0;
  recover::CheckpointLog* checkpoints = nullptr;  ///< non-owning sink

  /// Resume point: when set, the engine seeds its state from this snapshot
  /// (which must match the graph) and continues from snapshot.now + 1
  /// instead of instruction time 0.  The continuation is bit-identical to
  /// the uninterrupted run on every scheduler.  Non-owning.
  const recover::Snapshot* restoreFrom = nullptr;

  /// Wall-clock budget for this run in microseconds; when exceeded the
  /// timed engines abort with run::DeadlineError (checked every few hundred
  /// instruction times, so expiry is detected promptly but not exactly).
  /// 0 = off.
  std::int64_t deadlineMicros = 0;
};

/// Thrown when a run can make no further progress — the watchdog saw an
/// idle window, or the maxInstructionTimes cap was hit, with outputs still
/// incomplete.  what() carries the full diagnosis (guard::diagnoseStall).
class StallError : public std::runtime_error {
 public:
  StallError(std::int64_t at, const std::string& diagnosis)
      : std::runtime_error(diagnosis), at_(at) {}

  /// Instruction time (firing count for the untimed interpreter) at which
  /// the stall was declared.
  std::int64_t at() const { return at_; }

 private:
  std::int64_t at_;
};

/// Thrown when a run's wall-clock deadline (RunOptions::deadlineMicros)
/// expires with the run still in progress.  Distinct from StallError — the
/// machine may be making progress, just not fast enough — so supervisors can
/// apply a different retry policy (e.g. widen the budget).
class DeadlineError : public std::runtime_error {
 public:
  DeadlineError(std::int64_t at, std::int64_t budgetMicros)
      : std::runtime_error("run deadline of " + std::to_string(budgetMicros) +
                           " us expired at instruction time " +
                           std::to_string(at)),
        at_(at),
        budgetMicros_(budgetMicros) {}

  /// Instruction time the expiry was detected at.
  std::int64_t at() const { return at_; }
  std::int64_t budgetMicros() const { return budgetMicros_; }

 private:
  std::int64_t at_;
  std::int64_t budgetMicros_;
};

}  // namespace valpipe::run

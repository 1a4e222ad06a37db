// Runtime invariant guards for the §2 acknowledge-arc discipline.
//
// The static architecture is only safe because of four invariants the
// engines normally uphold by construction:
//
//   token conservation   — per arc, packets delivered never exceed packets
//                          sent, and packets consumed never exceed packets
//                          delivered;
//   never-overwrite      — a result packet never lands in an occupied
//                          operand slot;
//   ack balance          — a producer never receives more acknowledges for
//                          a destination than results it sent;
//   one active instance  — a producer never sends into a destination whose
//                          previous result is still un-acknowledged.
//
// Guards re-check these at run time against per-arc counters, catching both
// engine bugs and the destructive class of injected faults (fault/plan.hpp).
// They are opt-in through run::RunOptions::guards (false = off), every
// invariant is checked when on, and every hook is a null-pointer test when
// off — the same zero-cost contract as the obs probes.  A violation throws
// guard::ViolationError naming the invariant and the cells on the offending
// arc.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/executable_graph.hpp"

namespace valpipe::guard {

enum class Invariant {
  TokenConservation,
  NeverOverwrite,
  AckBalance,
  OneActiveInstance,
  /// Capacity-k generalization of one-active-instance for composite FIFO
  /// cells: in-flight tokens never exceed the interior stage count.
  FifoCapacity,
};

const char* invariantName(Invariant inv);

/// A detected invariant violation: the structured fields identify the arc
/// (flat operand slot) and the cell the check charged it to; what() carries
/// the full human-readable message with both endpoint cells named.
class ViolationError : public std::runtime_error {
 public:
  ViolationError(Invariant inv, std::uint32_t cell, std::int64_t slot,
                 const std::string& what)
      : std::runtime_error(what), inv_(inv), cell_(cell), slot_(slot) {}

  Invariant invariant() const { return inv_; }
  std::uint32_t cell() const { return cell_; }
  std::int64_t slot() const { return slot_; }

 private:
  Invariant inv_;
  std::uint32_t cell_;
  std::int64_t slot_;
};

/// Per-arc packet counters, indexed by flat operand slot.  Load-time tokens
/// count as one packet already sent and delivered (matching the engines'
/// slot seeding).
struct State {
  explicit State(const exec::ExecutableGraph& eg)
      : sent(eg.slotCount(), 0),
        acked(eg.slotCount(), 0),
        delivered(eg.slotCount(), 0),
        consumed(eg.slotCount(), 0) {
    for (std::uint32_t s = 0; s < eg.slotCount(); ++s)
      if (eg.operandAt(s).hasInitial) sent[s] = delivered[s] = 1;
  }

  std::vector<std::int64_t> sent;       ///< results the producer launched
  std::vector<std::int64_t> acked;      ///< acknowledges it received
  std::vector<std::int64_t> delivered;  ///< results that landed in the slot
  std::vector<std::int64_t> consumed;   ///< results the consumer used
};

/// "cell #12 (MUL)" / "cell #3 (OUT 'x')" label for messages.
std::string cellLabel(const exec::ExecutableGraph& eg, std::uint32_t cell);

/// An engine's guard hooks over its per-run State.  Default-constructed
/// guards are inert; every hook then costs one null test.
class LaneGuard {
 public:
  LaneGuard() = default;
  LaneGuard(State* st, const exec::ExecutableGraph* eg) : st_(st), eg_(eg) {}

  bool active() const { return st_ != nullptr; }

  /// Producer launches a result packet toward `slot` (before any fault may
  /// drop the packet in flight — the send itself is what the invariant
  /// constrains).
  void onSend(std::uint32_t producer, std::uint32_t slot, std::int64_t at) {
    if (!st_) return;
    if (st_->sent[slot] - st_->acked[slot] != 0)
      violate(Invariant::OneActiveInstance, producer, slot, at);
    ++st_->sent[slot];
  }

  /// Producer receives the acknowledge freeing `slot`.
  void onAck(std::uint32_t producer, std::uint32_t slot, std::int64_t at) {
    if (!st_) return;
    if (st_->sent[slot] - st_->acked[slot] <= 0)
      violate(Invariant::AckBalance, producer, slot, at);
    ++st_->acked[slot];
  }

  /// A result packet lands in `slot` (`occupied` = slot already full).
  void onDeliver(std::uint32_t consumer, std::uint32_t slot, bool occupied,
                 std::int64_t at) {
    if (!st_) return;
    if (occupied) violate(Invariant::NeverOverwrite, consumer, slot, at);
    if (st_->delivered[slot] >= st_->sent[slot])
      violate(Invariant::TokenConservation, consumer, slot, at);
    ++st_->delivered[slot];
  }

  /// Consumer fires and empties `slot` (`occupied` = slot held a packet).
  void onConsume(std::uint32_t consumer, std::uint32_t slot, bool occupied,
                 std::int64_t at) {
    if (!st_) return;
    if (!occupied || st_->consumed[slot] >= st_->delivered[slot])
      violate(Invariant::TokenConservation, consumer, slot, at);
    ++st_->consumed[slot];
  }

  /// Re-validation checkpoint after SchedulerKind::Compiled fast-forwards
  /// the run by whole hyper-periods.  The per-event hooks above never see
  /// the skipped window — the engine advances the per-arc counters in bulk
  /// (N windows times the per-window delta) — so without this hook --guards
  /// would silently validate nothing across the jump.  The checkpoint
  /// re-checks the *instantaneous* form of every invariant on
  /// the advanced counters: per arc, acked <= sent <= acked + 1 (ack
  /// balance / one active instance under the capacity-1 slot discipline)
  /// and consumed <= delivered <= sent (token conservation).  Violations
  /// are charged to the arc's producer cell.
  void onCompiledCheckpoint(std::int64_t at) {
    if (!st_) return;
    for (std::uint32_t s = 0;
         s < static_cast<std::uint32_t>(st_->sent.size()); ++s) {
      const std::uint32_t producer = eg_->operandAt(s).producer;
      if (producer == exec::kNoProducer) continue;  // literal arc: no packets
      if (st_->sent[s] < st_->acked[s])
        violate(Invariant::AckBalance, producer, s, at);
      if (st_->sent[s] - st_->acked[s] > 1)
        violate(Invariant::OneActiveInstance, producer, s, at);
      if (st_->delivered[s] > st_->sent[s] ||
          st_->consumed[s] > st_->delivered[s])
        violate(Invariant::TokenConservation, producer, s, at);
    }
  }

  /// A composite FIFO cell fired (accept and/or emit applied; see
  /// exec/fifo.hpp).  The capacity-1 slot invariants above still govern the
  /// composite's own input and destination slots; this hook checks the
  /// capacity-(depth-1) interior the chain's per-stage slots used to cover:
  /// emits never outrun accepts, and queued tokens never exceed the interior
  /// stage count.  Violations are charged to the composite's input slot.
  void onFifoFire(std::uint32_t cell, std::uint32_t inputSlot,
                  std::int64_t accepted, std::int64_t emitted, int depth,
                  std::int64_t at) {
    if (!st_) return;
    if (emitted > accepted)
      violate(Invariant::TokenConservation, cell, inputSlot, at);
    if (accepted - emitted > depth - 1)
      violate(Invariant::FifoCapacity, cell, inputSlot, at);
  }

 private:
  [[noreturn]] void violate(Invariant inv, std::uint32_t cell,
                            std::uint32_t slot, std::int64_t at) const;

  State* st_ = nullptr;
  const exec::ExecutableGraph* eg_ = nullptr;
};

}  // namespace valpipe::guard

// Engine-side checkpoint capture / restore helpers (internal header).
//
// recover/snapshot.hpp defines the scheduler-portable state format; this
// header holds the machinery every timed engine shares when moving between
// that format and its live state:
//
//   captureSingle / restoreSingle   — the flat engine (EventDriven, and
//                                     Compiled, which runs the same engine);
//   toFifoImage / fifoStateOf       — composite-FIFO ring conversion, also
//                                     used by the Reference engine;
//   scanClean                       — the kLostPacket poison scan deciding
//                                     Snapshot::clean;
//   seedRestoreWakes                — reconstruction of the event-driven
//                                     wake set from materialized state,
//                                     for a restore and after a Compiled
//                                     jump (SingleEngine::reseedWheel).
//
// Why wake reconstruction is sound.  The Reference stepper rescans every
// cell at every instruction time and is bit-identical to EventDriven (the
// scheduler-equivalence matrix pins it, per-cell firing counts included):
// the enabling test and two-phase firing discipline are insensitive to
// *extra* examinations — an examined-but-not-enabled cell changes nothing.
// Correctness of the event-driven schedule therefore needs only that no
// enabling-edge time is *missed*.  At a step boundary, every pending wheel
// entry of the uninterrupted run is one of: a consumer wake at a full slot's
// readyAt; a producer wake at a freed slot's freedAt; a composite FIFO's
// ring-maturation or period-boundary time; a `now + 1` self/neighbor wake;
// an FU-release or outage-end retry.  The first three are functions of the
// snapshot state and are reseeded exactly; the `now + 1` class is covered by
// waking every cell once at now + 1; and the FU/outage retries re-arm
// themselves from that same sweep (phase A re-issues the retry wake whenever
// an enabled cell is denied).  Extra wakes the uninterrupted run would not
// have had are harmless by the same full-rescan argument — they may
// add obs probe `denied` events, which are deliberately outside the
// MachineResult equivalence contract.
//
// The argument covers the Compiled scheduler's jump as well.  A jump leaves
// the engine in the state the uninterrupted run reaches at the target time
// (every timestamp shifted by whole periods), and nothing in that state
// refers to the wheel, so reseeding from it is exactly a restore at the
// target.  The compiled run therefore keeps no copy of the wheel, and a
// checkpoint captured after a jump is an ordinary snapshot.
#pragma once

#include <algorithm>
#include <cstdint>

#include "exec/cell_state.hpp"
#include "exec/executable_graph.hpp"
#include "exec/fifo.hpp"
#include "fault/plan.hpp"
#include "recover/snapshot.hpp"

namespace valpipe::machine::detail {

struct SingleEngine;

/// Captures the complete state of the flat engine after phase B of
/// step `e.now` (EventDriven / Compiled capture points).
recover::Snapshot captureSingle(const SingleEngine& e, const char* origin);

/// Seeds a freshly constructed engine from `s` (validated against the graph).
/// The caller's run loop must then seed the wake set (seedRestoreWakes) and
/// resume from s.now + 1.
void restoreSingle(SingleEngine& e, const recover::Snapshot& s);

/// FifoState -> portable ring image (the transient phase-A decision cache is
/// dead between instruction times and is not captured).
inline recover::FifoImage toFifoImage(std::uint32_t cell,
                                      const exec::FifoState& f) {
  recover::FifoImage img;
  img.cell = cell;
  img.depth = f.depth;
  img.head = f.head;
  img.count = f.count;
  img.accepted = f.accepted;
  img.emitted = f.emitted;
  img.lastAccept = f.lastAccept;
  img.lastEmit = f.lastEmit;
  img.vals = f.vals;
  img.readyAt = f.readyAt;
  img.emitAt = f.emitAt;
  return img;
}

/// Portable ring image -> FifoState with the decision cache reset.
inline exec::FifoState fifoStateOf(const recover::FifoImage& img) {
  exec::FifoState f;
  f.depth = img.depth;
  f.head = img.head;
  f.count = img.count;
  f.accepted = img.accepted;
  f.emitted = img.emitted;
  f.lastAccept = img.lastAccept;
  f.lastEmit = img.lastEmit;
  f.vals = img.vals;
  f.readyAt = img.readyAt;
  f.emitAt = img.emitAt;
  f.doAccept = f.doEmit = false;
  f.decidedAt = exec::FifoState::kNever;
  return f;
}

/// A snapshot is clean when no slot carries the kLostPacket stamp of a
/// dropped result or acknowledge.  The poison is permanent — a lost packet
/// blocks its arc forever — so clean snapshots strictly precede the first
/// destructive fault effect and are valid recovery points.
inline bool scanClean(const std::vector<recover::SlotImage>& slots) {
  for (const recover::SlotImage& s : slots)
    if (s.readyAt >= fault::kLostPacket || s.freedAt >= fault::kLostPacket)
      return false;
  return true;
}

/// Reseeds the wake set of an event-driven wheel from materialized state at
/// boundary `now` — a restore, or the end of a compiled jump (see the
/// soundness argument in the file comment).  Emits
/// (cell, at) pairs through `wakeFn`; targeted wakes beyond `now + horizon`
/// are clamped to the horizon, where the ordinary phase-A retry chain takes
/// over, exactly as live outage wakes chain.
template <class WakeFn>
void seedRestoreWakes(const exec::ExecutableGraph& eg, const exec::Slot* slots,
                      const exec::CellDyn* cellDyn,
                      const exec::FifoState* fifoDyn,
                      const exec::FifoTiming& t, std::int64_t now,
                      std::int64_t horizon, WakeFn&& wakeFn) {
  const auto wake = [&](std::uint32_t c, std::int64_t at) {
    if (at > now && at < fault::kLostPacket)
      wakeFn(c, std::min(at, now + horizon));
  };
  for (std::uint32_t c = 0; c < eg.size(); ++c) {
    const exec::Cell& cl = eg.cell(c);
    // Safety sweep: every `now + 1` wake class (own-firing completion,
    // store-extends-region, FU/outage retry re-arming) in one examination.
    wakeFn(c, now + 1);
    wake(c, cellDyn[c].busyUntil);
    const int ports = static_cast<int>(cl.numPorts) + (cl.hasGate ? 1 : 0);
    for (int p = 0; p < ports; ++p) {
      const std::uint32_t si = cl.firstPort + static_cast<std::uint32_t>(p);
      const exec::Slot& s = slots[si];
      if (s.full) {
        wake(c, s.readyAt);  // packet in flight: consumer wakes on arrival
      } else {
        // Acknowledge in flight: the producer wakes when the slot frees.
        const std::uint32_t producer = eg.operandAt(si).producer;
        if (producer != exec::kNoProducer) wake(producer, s.freedAt);
      }
    }
    if (cl.op == dfg::Op::Fifo && cl.fifoDepth >= 2) {
      const exec::FifoState& f = fifoDyn[c];
      // Period boundaries of the head and tail stages.
      wake(c, f.lastAccept + t.period());
      wake(c, f.lastEmit + t.period());
      // Head-token maturation (interior traversal of the chain).
      if (f.count > 0)
        wake(c, std::max(f.readyAt[f.head], f.lastEmit + t.period()));
      // Backpressure release: the acknowledge wave of the emit that frees
      // the next accept's ring slot.
      if (f.accepted >= f.ring())
        wake(c, f.emitAt[static_cast<std::size_t>(f.accepted % f.ring())] +
                    f.ring() * t.ackDelay);
    }
  }
}

}  // namespace valpipe::machine::detail

// Checkpoint capture / restore of the flat engine (detail::SingleEngine).
//
// Capture runs at a step boundary (after phase B of step `now`) and flattens
// the engine into the scheduler-portable recover::Snapshot; restore is its
// exact inverse over a freshly constructed engine.  The wake-set reseeding
// that completes a restore lives in engine_snapshot.hpp (seedRestoreWakes)
// because the run loops own the wheel.
#include "machine/engine_snapshot.hpp"

#include "machine/engine_single.hpp"

namespace valpipe::machine::detail {

recover::Snapshot captureSingle(const SingleEngine& e, const char* origin) {
  recover::Snapshot s;
  s.cells = e.eg.size();
  s.slotCount = e.eg.slotCount();
  s.origin = origin;
  s.now = e.now;
  s.lastFire = e.lastFire_;

  s.slots.resize(e.eg.slotCount());
  for (std::uint32_t i = 0; i < e.eg.slotCount(); ++i) {
    const exec::Slot& sl = e.slots[i];
    s.slots[i] = {sl.full, sl.v, sl.readyAt, sl.freedAt};
  }
  s.cellDyn.resize(e.eg.size());
  for (std::uint32_t c = 0; c < e.eg.size(); ++c) {
    const exec::CellDyn& d = e.cellDyn[c];
    s.cellDyn[c] = {d.emitted, d.busyUntil, e.firings[c]};
    const exec::Cell& cl = e.eg.cell(c);
    if (cl.op == dfg::Op::Fifo && cl.fifoDepth >= 2)
      s.fifos.push_back(toFifoImage(c, e.fifoDyn[c]));
  }

  s.packets = e.packets;
  s.totalFirings = e.totalFirings;
  s.fuBusy = e.fu.busy();
  s.fuFreeAt = e.fu.freeAt();
  if (e.router.active()) s.pePackets = e.router.pePackets();

  s.outputs = e.outputs;
  s.outputTimes = e.outputTimes;
  s.amFinal = e.amFinal;

  if (e.gst) {
    s.hasGuards = true;
    s.guardSent = e.gst->sent;
    s.guardAcked = e.gst->acked;
    s.guardDelivered = e.gst->delivered;
    s.guardConsumed = e.gst->consumed;
  }
  if (e.inj.active()) s.rngLanes = {e.inj.rngState()};
  s.faultCounters = e.inj.counters;
  s.clean = scanClean(s.slots);
  return s;
}

void restoreSingle(SingleEngine& e, const recover::Snapshot& s) {
  VALPIPE_CHECK_MSG(
      s.cells == e.eg.size() && s.slotCount == e.eg.slotCount() &&
          s.slots.size() == s.slotCount && s.cellDyn.size() == s.cells,
      "snapshot does not match the graph");
  VALPIPE_CHECK_MSG(s.now < e.capCycles(),
                    "restore point lies at or beyond the cycle cap");
  VALPIPE_CHECK_MSG(!e.gst || s.hasGuards,
                    "cannot enable guards when restoring a snapshot captured "
                    "without them (per-arc counters would be missing)");

  for (std::uint32_t i = 0; i < e.eg.slotCount(); ++i) {
    const recover::SlotImage& img = s.slots[i];
    e.slots[i] = {img.full, img.v, img.readyAt, img.freedAt};
  }
  for (std::uint32_t c = 0; c < e.eg.size(); ++c) {
    const recover::CellImage& img = s.cellDyn[c];
    e.cellDyn[c] = {img.emitted, img.busyUntil};
    e.firings[c] = img.firings;
  }
  for (const recover::FifoImage& img : s.fifos) {
    VALPIPE_CHECK_MSG(img.cell < e.eg.size() &&
                          e.eg.cell(img.cell).fifoDepth == img.depth,
                      "snapshot FIFO ring does not match the graph");
    e.fifoDyn[img.cell] = fifoStateOf(img);
  }

  e.packets = s.packets;
  e.totalFirings = s.totalFirings;
  e.fu.restore(s.fuFreeAt, s.fuBusy);
  if (e.router.active()) e.router.restorePackets(s.pePackets);

  e.outputs = s.outputs;
  e.outputTimes = s.outputTimes;
  // Array-memory regions are refilled entry by entry: sourceData holds
  // pointers into amFinal's mapped vectors (bound at construction), and map
  // nodes are stable under per-key assignment but not under operator= of the
  // whole map.
  for (const auto& [name, vals] : s.amFinal) e.amFinal[name] = vals;
  for (std::size_t i = 0; i < e.stop.size(); ++i) {
    const auto it = s.outputs.find(e.stop.name(i));
    if (it != s.outputs.end())
      e.stop.advance(static_cast<std::int32_t>(i),
                     static_cast<std::int64_t>(it->second.size()));
  }

  if (e.gst && s.hasGuards) {
    VALPIPE_CHECK_MSG(s.guardSent.size() == e.gst->sent.size(),
                      "snapshot guard counters do not match the graph");
    e.gst->sent = s.guardSent;
    e.gst->acked = s.guardAcked;
    e.gst->delivered = s.guardDelivered;
    e.gst->consumed = s.guardConsumed;
  }
  if (e.inj.active() && !s.rngLanes.empty()) e.inj.setRngState(s.rngLanes[0]);
  e.inj.counters = s.faultCounters;

  e.now = s.now;
  e.lastFire_ = s.lastFire;
}

}  // namespace valpipe::machine::detail

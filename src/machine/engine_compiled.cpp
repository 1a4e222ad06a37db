// SchedulerKind::Compiled — the steady-state backend over the
// sched::SteadySchedule IR.
//
// A balanced graph's run has three phases (§3): a fill transient while the
// pipe loads, a periodic steady state where every cell fires once per
// hyper-period, and a drain transient as the sources exhaust.  The event
// engine spends the same per-token effort on all three; only the transients
// need it.  The compiled scheduler therefore runs the ordinary event loop
// (detail::SingleEngine::runEventLoop) with a per-step hook that
//
//   1. mirrors the time wheel's pending wakes (SingleEngine::wakeLog), so the
//      wheel can be rebuilt, shifted in time, after a jump;
//   2. once past an arming time that covers the fill transient, snapshots the
//      machine state in shift-canonical form — every timestamp taken relative
//      to `now` and floored at a horizon below which it can never influence
//      behavior again — and watches for the state to recur;
//   3. on a recurrence with at least one firing in between (a steady period
//      of measured length δ), fast-forwards N whole periods at once: counters
//      advance by N times the per-window delta, timestamps shift by K = N·δ,
//      and every value the skipped windows would have produced (output
//      elements, slot occupants, FIFO ring contents) is reconstructed by
//      token index with sched::SteadyLoop — a straight-line loop over
//      preallocated blocks, vectorized when the values are provably all real.
//
// Bit-identity argument: the engine is deterministic and, on an accepted
// graph (no gates, merges, array memory, feedback, or initial tokens), its
// *timing* trajectory is value-independent — values flow only into outputs
// and arithmetic, never into enabling decisions.  The canonical snapshot
// plus the pending-wake mirror is exactly the state that determines the
// future trajectory, so a recurrence proves the trajectory from t1 replays
// the window (t0, t1] shifted by δ, forever — until a source exhausts or an
// expected-output count completes, both of which the jump bound N keeps at
// least two windows away.  Values are reconstructed with the same ops::
// routines on the same inputs (sched/steady_loop.hpp), so outputs — and any
// ValueError a skipped window would have thrown — are identical too.
//
// The fast path is declined at run time (the event loop still runs, under
// the Compiled label, with a diagnostic in MachineResult::compiled.reason)
// when the run carries state a bulk jump cannot advance or must not skip:
// fault injection, a placement (per-PE routing state), observability sinks
// (every skipped firing would be a missing trace/metrics event), finite
// function-unit pools (per-unit freeAt state), or two Output cells feeding
// one stream (per-stream append order across cells is time-interleaved).
#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "machine/engine_single.hpp"
#include "sched/schedule.hpp"
#include "sched/steady_loop.hpp"
#include "support/check.hpp"

namespace valpipe::machine::detail {

namespace {

/// One shift-canonical machine snapshot plus the monotone counters needed to
/// form per-window deltas.
struct Snap {
  bool valid = false;  ///< composite rings fully wrapped (see takeSnap)
  std::int64_t t = 0;
  std::vector<std::int64_t> words;  ///< canonical state, compared verbatim
  std::vector<std::uint64_t> firings;
  std::uint64_t totalFirings = 0;
  exec::PacketCounters packets;
  std::vector<std::int64_t> emitted;       ///< CellDyn::emitted per cell
  std::vector<std::int64_t> fifoAccepted;  ///< per composite (driver order)
  std::vector<std::int64_t> fifoEmitted;
  std::array<std::uint64_t, 4> fuBusy{};
  std::vector<std::int64_t> stopHave;
  std::vector<std::int64_t> gSent, gAcked, gDelivered, gConsumed;
};

class CompiledDriver {
 public:
  CompiledDriver(SingleEngine& e, const sched::SteadySchedule& ss)
      : e_(e), ss_(ss) {
    const std::int64_t period = e_.fifoTiming().period();
    // Below this floor every timestamp is behaviorally dead: no enabling
    // test, rate bound, or ring acknowledge-wave check reaches further back.
    horizon_ = e_.settleWindow() + e_.wakeHorizon() +
               (e_.eg.maxFifoDepth() + 2) * period + 4;
    // Arm after the fill transient: the deepest pipeline (or FIFO ring) has
    // loaded and every composite ring has wrapped by then.
    arm_ = (e_.eg.maxFifoDepth() + 2) * period + e_.wakeHorizon() +
           e_.settleWindow();
    maxSpan_ = 16 * (period + e_.wakeHorizon()) + 64;
    for (std::uint32_t c = 0; c < e_.eg.size(); ++c) {
      const exec::Cell& cl = e_.eg.cell(c);
      if (cl.op == dfg::Op::Fifo && cl.fifoDepth >= 2) composites_.push_back(c);
      if (dfg::isSource(cl.op)) sources_.push_back(c);
      if (cl.op == dfg::Op::Output) outputCells_.push_back(c);
    }
  }

  /// The wake log SingleEngine appends to; drained into the pending mirror
  /// at the start of every step.
  std::vector<std::pair<std::uint32_t, std::int64_t>>* wakeBuf = nullptr;

  void afterStep() {
    for (const auto& [cell, at] : *wakeBuf)
      if (at > e_.now) pending_.insert({at, cell});
    wakeBuf->clear();
    while (!pending_.empty() && pending_.begin()->first <= e_.now)
      pending_.erase(pending_.begin());

    if (done_ || e_.now < arm_) return;
    if (!haveBase_) {
      takeSnap(base_);
      haveBase_ = base_.valid;
      return;
    }
    takeSnap(cur_);
    if (cur_.valid && cur_.words == base_.words &&
        cur_.totalFirings > base_.totalFirings) {
      tryJump();
      return;
    }
    if (e_.now - base_.t > maxSpan_) {
      // The window since the base never recurred: rebase and retry, giving
      // up after enough attempts that the run is clearly not periodic at
      // any phase we would catch (jitter-free runs recur within one span).
      if (++attempts_ >= kMaxAttempts) {
        done_ = true;
        if (e_.result.compiled.reason.empty())
          e_.result.compiled.reason = "no steady period detected";
        return;
      }
      base_ = cur_;
      haveBase_ = cur_.valid;
    }
  }

 private:
  static constexpr int kMaxAttempts = 16;

  void canonWords(std::vector<std::int64_t>& w) const {
    w.clear();
    const std::int64_t now = e_.now;
    const std::int64_t floor = -horizon_;
    const auto canon = [&](std::int64_t tau) {
      return std::max(tau - now, floor);
    };
    for (std::uint32_t s = 0;
         s < static_cast<std::uint32_t>(e_.eg.slotCount()); ++s) {
      const exec::Slot& sl = e_.slots[s];
      w.push_back(sl.full ? 1 : 0);
      w.push_back(canon(sl.readyAt));
      w.push_back(canon(sl.freedAt));
    }
    for (std::uint32_t c = 0; c < e_.eg.size(); ++c)
      w.push_back(canon(e_.cellDyn[c].busyUntil));
    w.push_back(canon(e_.lastFire_));
    for (std::uint32_t c : composites_) {
      const exec::FifoState& f = e_.fifoDyn[c];
      const auto ring = static_cast<std::uint32_t>(f.ring());
      w.push_back(f.count);
      w.push_back(f.accepted >= f.ring() ? 1 : 0);
      w.push_back(f.emitted >= f.ring() ? 1 : 0);
      w.push_back(canon(f.lastAccept));
      w.push_back(canon(f.lastEmit));
      // Live ring entries, head-relative (head tracks emitted mod ring, so
      // relative positions align across snapshots); dead entries are stale
      // storage the firing rule never reads.
      for (std::uint32_t i = 0; i < f.count; ++i)
        w.push_back(canon(f.readyAt[(f.head + i) % ring]));
      // Emit times, aligned relative to the next accept (canAccept reads
      // emitAt[accepted % ring] for the backward acknowledge wave).
      for (std::uint32_t i = 0; i < ring; ++i)
        w.push_back(canon(f.emitAt[static_cast<std::size_t>(
            (f.accepted + i) % f.ring())]));
    }
    // The pending-wake mirror is part of the state that drives the future:
    // two snapshots only recur if the wheel holds the same future, shifted.
    w.push_back(static_cast<std::int64_t>(pending_.size()));
    for (const auto& [at, cell] : pending_) {
      w.push_back(at - now);
      w.push_back(static_cast<std::int64_t>(cell));
    }
  }

  void takeSnap(Snap& s) const {
    const std::size_t n = e_.eg.size();
    // A jump shifts ring contents by whole windows; every emitAt entry must
    // therefore hold a real emit time (the ring has wrapped), or the shifted
    // entry would be unreconstructable.
    s.valid = true;
    for (std::uint32_t c : composites_) {
      const exec::FifoState& f = e_.fifoDyn[c];
      if (f.accepted < f.ring() || f.emitted < f.ring()) s.valid = false;
    }
    s.t = e_.now;
    canonWords(s.words);
    s.firings = e_.firings;
    s.totalFirings = e_.totalFirings;
    s.packets = e_.packets;
    s.emitted.resize(n);
    for (std::uint32_t c = 0; c < n; ++c) s.emitted[c] = e_.cellDyn[c].emitted;
    s.fifoAccepted.clear();
    s.fifoEmitted.clear();
    for (std::uint32_t c : composites_) {
      s.fifoAccepted.push_back(e_.fifoDyn[c].accepted);
      s.fifoEmitted.push_back(e_.fifoDyn[c].emitted);
    }
    s.fuBusy = e_.fu.busy();
    s.stopHave.clear();
    for (std::size_t i = 0; i < e_.stop.size(); ++i)
      s.stopHave.push_back(e_.stop.have(i));
    if (e_.gst) {
      s.gSent = e_.gst->sent;
      s.gAcked = e_.gst->acked;
      s.gDelivered = e_.gst->delivered;
      s.gConsumed = e_.gst->consumed;
    }
  }

  void tryJump() {
    const std::int64_t delta = cur_.t - base_.t;  // measured period
    const std::size_t n = e_.eg.size();

    // Per-window firing deltas.
    std::vector<std::int64_t> dF(n);
    for (std::uint32_t c = 0; c < n; ++c)
      dF[c] = static_cast<std::int64_t>(cur_.firings[c] - base_.firings[c]);
    const auto dTotal =
        static_cast<std::int64_t>(cur_.totalFirings - base_.totalFirings);

    // How many windows may be skipped.  Leave a generous margin before the
    // cycle cap (the drain plus detection re-arm must fit), and keep every
    // source and every expected-output count at least two windows away from
    // its limit, so the replayed windows are genuinely interior steady state.
    std::int64_t nWin = std::numeric_limits<std::int64_t>::max() / 4;
    {
      const std::int64_t room = e_.capCycles() - cur_.t - e_.wakeHorizon() -
                                e_.settleWindow() - 4 * delta;
      nWin = std::min(nWin, room > 0 ? room / delta : 0);
    }
    for (std::uint32_t c : sources_) {
      const std::int64_t dE = cur_.emitted[c] - base_.emitted[c];
      if (dE <= 0) continue;
      const std::int64_t left =
          e_.sourceLimit(c, e_.eg.cell(c)) - cur_.emitted[c];
      nWin = std::min(nWin, left / dE - 2);
    }
    for (std::size_t i = 0; i < e_.stop.size(); ++i) {
      const std::int64_t dH = e_.stop.have(i) - base_.stopHave[i];
      if (e_.stop.want(i) <= 0 || dH <= 0) continue;
      nWin = std::min(nWin, (e_.stop.want(i) - e_.stop.have(i)) / dH - 2);
    }
    if (nWin < 2) {
      done_ = true;
      if (e_.result.compiled.reason.empty())
        e_.result.compiled.reason =
            "steady state reached with fewer than two periods remaining";
      return;
    }
    const std::int64_t K = nWin * delta;

    // --- reconstruct every value the skipped windows produce --------------
    sched::SteadyLoop loop(e_.eg, ss_);
    for (std::uint32_t c : sources_)
      if (e_.eg.cell(c).op == dfg::Op::Input)
        loop.bindSource(c, e_.sourceData[c]);
    for (std::uint32_t c = 0; c < n; ++c) {
      if (dF[c] <= 0) continue;
      const exec::Cell& cl = e_.eg.cell(c);
      // Every skipped firing that evaluates anything is evaluated here, so a
      // ValueError the real run would hit in the window is hit here too.
      if (dfg::producesResult(cl.op) || dfg::isSource(cl.op))
        loop.request(c, static_cast<std::int64_t>(cur_.firings[c]),
                     static_cast<std::int64_t>(cur_.firings[c]) + nWin * dF[c]);
      if (cl.op == dfg::Op::Output && !e_.eg.operand(cl, 0).isLiteral())
        loop.request(e_.eg.operand(cl, 0).producer,
                     static_cast<std::int64_t>(cur_.firings[c]),
                     static_cast<std::int64_t>(cur_.firings[c]) + nWin * dF[c]);
    }
    for (std::size_t ci = 0; ci < composites_.size(); ++ci) {
      // Post-jump ring contents: the composite's tokens [emitted', accepted')
      // (the fused chain is the identity on token indices, so the loop's
      // value for the Fifo cell itself is the queued token).
      const std::uint32_t c = composites_[ci];
      const exec::FifoState& f = e_.fifoDyn[c];
      const std::int64_t dE = cur_.fifoEmitted[ci] - base_.fifoEmitted[ci];
      loop.request(c, f.emitted + nWin * dE,
                   f.emitted + nWin * dE + static_cast<std::int64_t>(f.count));
    }
    loop.compute();

    // --- apply the jump ---------------------------------------------------
    const std::int64_t tNew = cur_.t + K;

    for (std::uint32_t c = 0; c < n; ++c)
      e_.firings[c] += static_cast<std::uint64_t>(nWin * dF[c]);
    e_.totalFirings += static_cast<std::uint64_t>(nWin * dTotal);
    for (std::size_t i = 0; i < 4; ++i)
      e_.packets.opPacketsByClass[i] +=
          static_cast<std::uint64_t>(nWin) *
          (cur_.packets.opPacketsByClass[i] - base_.packets.opPacketsByClass[i]);
    e_.packets.resultPackets +=
        static_cast<std::uint64_t>(nWin) *
        (cur_.packets.resultPackets - base_.packets.resultPackets);
    e_.packets.ackPackets +=
        static_cast<std::uint64_t>(nWin) *
        (cur_.packets.ackPackets - base_.packets.ackPackets);
    e_.packets.networkResultPackets +=
        static_cast<std::uint64_t>(nWin) * (cur_.packets.networkResultPackets -
                                            base_.packets.networkResultPackets);
    {
      std::array<std::uint64_t, 4> dBusy{};
      for (std::size_t i = 0; i < 4; ++i)
        dBusy[i] =
            static_cast<std::uint64_t>(nWin) * (cur_.fuBusy[i] - base_.fuBusy[i]);
      e_.fu.addBusy(dBusy);
    }

    for (std::uint32_t c = 0; c < n; ++c) {
      e_.cellDyn[c].emitted += nWin * (cur_.emitted[c] - base_.emitted[c]);
      e_.cellDyn[c].busyUntil += K;
    }
    for (std::uint32_t s = 0;
         s < static_cast<std::uint32_t>(e_.eg.slotCount()); ++s) {
      // Uniform shift: live timestamps land exactly where the replayed run
      // puts them; dead ones (<= t1) stay in the dead past (<= t1 + K).
      e_.slots[s].readyAt += K;
      e_.slots[s].freedAt += K;
      if (!e_.slots[s].full) continue;
      const exec::Operand& o = e_.eg.operandAt(s);
      if (o.producer == exec::kNoProducer || dF[o.producer] <= 0) continue;
      // Capacity-1 in-order delivery: the occupant is always the producer's
      // latest token.
      e_.slots[s].v = loop.value(
          o.producer, static_cast<std::int64_t>(e_.firings[o.producer]) - 1);
    }

    for (std::size_t ci = 0; ci < composites_.size(); ++ci) {
      const std::uint32_t c = composites_[ci];
      exec::FifoState& f = e_.fifoDyn[c];
      const auto ring = static_cast<std::uint32_t>(f.ring());
      const std::int64_t dA = cur_.fifoAccepted[ci] - base_.fifoAccepted[ci];
      const std::int64_t dE = cur_.fifoEmitted[ci] - base_.fifoEmitted[ci];
      VALPIPE_CHECK_MSG(dA == dE,
                        "steady window changed composite FIFO occupancy");
      const auto rot = static_cast<std::uint32_t>((nWin * dE) % f.ring());
      std::vector<Value> vals(ring);
      std::vector<std::int64_t> readyAt(ring), emitAt(ring);
      for (std::uint32_t i = 0; i < ring; ++i) {
        const std::uint32_t j = (i + rot) % ring;
        vals[j] = f.vals[i];
        readyAt[j] = f.readyAt[i] + K;
        emitAt[j] = f.emitAt[i] + K;
      }
      f.vals.swap(vals);
      f.readyAt.swap(readyAt);
      f.emitAt.swap(emitAt);
      f.head = (f.head + rot) % ring;
      f.accepted += nWin * dA;
      f.emitted += nWin * dE;
      f.lastAccept += K;
      f.lastEmit += K;
      for (std::uint32_t i = 0; i < f.count; ++i)
        f.vals[(f.head + i) % ring] = loop.value(c, f.emitted + i);
    }

    for (std::uint32_t o : outputCells_) {
      if (dF[o] <= 0) continue;
      const exec::Cell& cl = e_.eg.cell(o);
      const std::string& name = e_.eg.streamName(cl);
      std::vector<Value>& vals = e_.outputs[name];
      std::vector<std::int64_t>& times = e_.outputTimes[name];
      // This stream has exactly one Output cell (shared streams decline the
      // fast path), so indices [f_t0, f_t1) are the base window's arrivals.
      const std::vector<std::int64_t> winTimes(
          times.begin() + static_cast<std::ptrdiff_t>(base_.firings[o]),
          times.begin() + static_cast<std::ptrdiff_t>(cur_.firings[o]));
      const exec::Operand& in0 = e_.eg.operand(cl, 0);
      const std::int64_t first = static_cast<std::int64_t>(cur_.firings[o]);
      const std::int64_t total = nWin * dF[o];
      vals.reserve(vals.size() + static_cast<std::size_t>(total));
      times.reserve(times.size() + static_cast<std::size_t>(total));
      // The appended tokens are contiguous in the producer's index space;
      // read the vectorized block directly when the loop took the fast path.
      const double* blk = in0.isLiteral()
                              ? nullptr
                              : loop.realBlock(in0.producer, first);
      for (std::int64_t w = 1; w <= nWin; ++w) {
        const std::int64_t k0 = first + (w - 1) * dF[o];
        for (std::int64_t m = 0; m < dF[o]; ++m) {
          if (in0.isLiteral()) vals.push_back(in0.literal);
          else if (blk) vals.emplace_back(blk[k0 - first + m]);
          else vals.push_back(loop.value(in0.producer, k0 + m));
          times.push_back(winTimes[static_cast<std::size_t>(m)] + w * delta);
        }
      }
      e_.stop.advance(e_.stopSlotOf[o], total);
    }

    if (e_.gst) {
      guard::State& g = *e_.gst;
      for (std::size_t s = 0; s < g.sent.size(); ++s) {
        g.sent[s] += nWin * (cur_.gSent[s] - base_.gSent[s]);
        g.acked[s] += nWin * (cur_.gAcked[s] - base_.gAcked[s]);
        g.delivered[s] += nWin * (cur_.gDelivered[s] - base_.gDelivered[s]);
        g.consumed[s] += nWin * (cur_.gConsumed[s] - base_.gConsumed[s]);
      }
    }

    // Rebuild the wheel from the mirror at the shifted times.  Every pending
    // wake targets (t1, t1 + horizon], so every rebuilt one targets
    // (tNew, tNew + horizon] — nothing lands at tNew itself (a wake at the
    // current time would examine cells one step early) and nothing aliases.
    e_.rq->clear();
    std::set<std::pair<std::int64_t, std::uint32_t>> shifted;
    for (const auto& [at, cell] : pending_) {
      e_.rq->wake(cell, at + K);
      shifted.insert({at + K, cell});
    }
    pending_.swap(shifted);

    e_.lastFire_ += K;  // exact: the window contained a firing, so the
                        // replayed trajectory's last firing shifts by K
    e_.now = tNew;
    if (e_.gst) {
      e_.grd.onCompiledCheckpoint(e_.now);
      for (std::uint32_t c : composites_) {
        const exec::FifoState& f = e_.fifoDyn[c];
        e_.grd.onFifoFire(c, e_.eg.slotOf(e_.eg.cell(c), 0), f.accepted,
                          f.emitted, f.depth, e_.now);
      }
    }

    auto& info = e_.result.compiled;
    info.fastForwarded = true;
    info.detectedPeriod = delta;
    info.windowsSkipped += nWin;
    info.cyclesSkipped += K;
    info.firingsSkipped += static_cast<std::uint64_t>(nWin * dTotal);
    info.vectorized = info.vectorized || loop.vectorized();

    // Re-arm: the remaining run may admit another (small) jump, and the
    // detector is cheap once the state is already periodic.
    haveBase_ = false;
    attempts_ = 0;
  }

  SingleEngine& e_;
  const sched::SteadySchedule& ss_;
  std::vector<std::uint32_t> composites_;
  std::vector<std::uint32_t> sources_;
  std::vector<std::uint32_t> outputCells_;
  /// Mirror of the wheel's future content: (wake time, cell), deduplicated —
  /// exactly the granularity at which the wheel's content is observable
  /// (push-side and pop-side dedupe make duplicates invisible).
  std::set<std::pair<std::int64_t, std::uint32_t>> pending_;
  std::int64_t horizon_ = 0;
  std::int64_t arm_ = 0;
  std::int64_t maxSpan_ = 0;
  int attempts_ = 0;
  bool haveBase_ = false;
  bool done_ = false;
  Snap base_, cur_;
};

}  // namespace

void runCompiled(SingleEngine& e) {
  auto& info = e.result.compiled;
  info.requested = true;
  const sched::SteadySchedule ss = sched::computeSteadySchedule(e.eg);
  if (!ss.accepted) {
    if (e.opts.compiledFallback == core::CompiledFallback::Error)
      throw sched::ScheduleDeclined(
          ss.decline, "compiled scheduler declined (" +
                          std::string(sched::declineName(ss.decline)) +
                          "): " + ss.detail);
    info.reason = "declined (" + std::string(sched::declineName(ss.decline)) +
                  "): " + ss.detail + "; falling back to event-driven";
    e.runEventDriven();
    return;
  }
  info.accepted = true;
  info.hyperPeriod = ss.hyperPeriod;

  // Run-shape conditions a bulk jump cannot advance or must not skip; the
  // event loop still runs (under the Compiled label) so results stay right.
  std::string noJump;
  if (e.opts.faults)
    noJump = "fault injection active";
  else if (e.opts.placement)
    noJump = "placement routing active";
  else if (e.opts.trace || e.opts.metrics)
    noJump = "observability sinks active";
  if (noJump.empty())
    for (std::uint32_t c = 0; c < e.eg.size(); ++c)
      if (e.cfg.fuUnits[static_cast<std::size_t>(e.eg.cell(c).fu)] != 0) {
        noJump = "finite function-unit pool";
        break;
      }
  if (noJump.empty()) {
    std::set<std::string> seen;
    for (std::uint32_t c = 0; c < e.eg.size(); ++c) {
      const exec::Cell& cl = e.eg.cell(c);
      if (cl.op != dfg::Op::Output) continue;
      if (!seen.insert(e.eg.streamName(cl)).second) {
        noJump = "multiple Output cells share a stream";
        break;
      }
    }
  }
  if (!noJump.empty()) {
    info.reason = noJump + ": steady-state fast-forward disabled";
    e.runEventDriven();
    return;
  }

  CompiledDriver drv(e, ss);
  std::vector<std::pair<std::uint32_t, std::int64_t>> buf;
  drv.wakeBuf = &buf;
  e.wakeLog = &buf;
  e.runEventLoop(
      [&drv](const std::vector<std::uint32_t>&) { drv.afterStep(); });
  e.wakeLog = nullptr;
}

}  // namespace valpipe::machine::detail

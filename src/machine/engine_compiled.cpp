// SchedulerKind::Compiled — the steady-state backend over the
// sched::SteadySchedule IR.
//
// A run whose control is compile-time has three phases (§3): a fill
// transient while the pipe loads, a periodic steady state where the machine
// repeats one window of firings, and a drain transient as the sources
// exhaust.  The event engine spends the same per-token effort on all three;
// only the transients need it.  The compiled scheduler therefore runs the
// ordinary event loop (detail::SingleEngine::runEventLoop) with a per-step
// hook that
//
//   1. once the fill transient is over, snapshots the machine state in
//      shift-canonical form — every timestamp taken relative to `now` and
//      floored where it can no longer influence behavior, plus the
//      occupants of full control slots — logs each step's firings from the
//      base snapshot on, and watches for the state to recur;
//   2. on a recurrence with at least one firing in between (a steady period
//      of measured length δ), fast-forwards N whole periods at once: counters
//      advance by N times the per-window delta, timestamps shift by K = N·δ,
//      and every value the skipped windows would have produced (output
//      elements, slot occupants, FIFO ring contents) is reconstructed — by
//      sched::SteadyLoop on a straight-line all-real graph, and otherwise by
//      replaying the logged window N times over a value-only copy of the
//      slots and rings (replayWindow below);
//   3. rebuilds the time wheel from the shifted state with the routine a
//      restore uses (SingleEngine::reseedWheel).
//
// Bit-identity argument.  The engine is deterministic, and its *timing*
// trajectory depends on values only through control slots (a gate port or a
// merge selector decides which destinations fill and which port is
// consumed), through source limits and through expected-output counts.  The
// time wheel is derived state: every enabling edge is a function of the
// slots, cell scalars and rings, and an extra examination changes nothing
// (machine/engine_snapshot.hpp).  The canonical snapshot is therefore
// exactly the state that determines the next window's timing *given its
// control values*, and the wheel reseeded after a jump misses no firing of
// the uninterrupted run.  The jump bound N keeps every source and every
// expected-output count at least two windows away from its limit, and the
// replay is checked, not trusted:
//
//   - it first replays the base window from the values captured at the base
//     snapshot and must reproduce the live values at the recurrence;
//   - in each skipped window every value written into a control slot must
//     equal the base window's write at the same position, which by
//     induction makes every skipped window's timing the base window's,
//     shifted;
//   - a mismatch or a ValueError in window w cuts the jump to w-1 windows
//     (replayed again from the values at the end of the base window), so a
//     control-pattern change, an interior division by zero or a divergent
//     lane pack is then reached by the live event loop exactly as
//     EventDriven reaches it.  A mismatch in the first window keeps the
//     base, so a longer period can still be found.
//
// Replayed values are computed by the engine's own rules (exec::applyPure,
// SingleEngine::sourceValue, gate/merge routing as fire() does it), so
// outputs are identical by construction; SteadyLoop is used only where its
// all-real proof makes its raw double loops the same expressions.
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
#include <cstring>
#include <limits>
#include <optional>
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
  std::int64_t t = 0;
  std::vector<std::int64_t> words;  ///< canonical timing state
  std::vector<Value> control;       ///< full control slots' occupants
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

/// The value-only machine state the window replay runs over: no timing, no
/// wheel, no acknowledges.
struct Values {
  /// Per operand slot: the last delivery, or the literal of a literal
  /// operand (nothing delivers there), so every operand reads one array.
  std::vector<Value> slot;
  std::vector<std::vector<Value>> ring;  ///< per composite: ring storage
  std::vector<std::uint32_t> head, count;
  std::vector<std::int64_t> emitted;     ///< per cell: source position
};

/// One logged firing.  A composite FIFO also records its phase-A decision,
/// since an activation may emit, accept, or both.
struct Fired {
  std::uint32_t cell;
  bool emit, accept;
};

/// How the replay evaluates a cell's firing, decoded once per run.
enum class Kind : std::uint8_t {
  Source, Composite, Id, Pure, Merge, Output, Sink
};

/// Bitwise value identity (NaN-safe, unlike Value's operator==).  Two packs
/// are identical when their headers (lane kind and width) and lane words
/// are.
bool same(const Value& a, const Value& b) {
  if (a.isReal() && b.isReal()) {
    const double x = a.asReal(), y = b.asReal();
    return std::memcmp(&x, &y, sizeof x) == 0;
  }
  if (!a.isPack() || !b.isPack()) return a == b;
  return a.laneKind() == b.laneKind() && a.laneWidth() == b.laneWidth() &&
         std::memcmp(a.laneWords(), b.laneWords(),
                     a.laneWidth() * sizeof(std::uint64_t)) == 0;
}

class CompiledDriver {
 public:
  CompiledDriver(SingleEngine& e, const sched::SteadySchedule& ss)
      : e_(e), ss_(ss) {
    const std::int64_t period = e_.fifoTiming().period();
    // Below this floor the last firing time no longer moves the quiescence
    // deadline.
    horizon_ = e_.settleWindow() + e_.wakeHorizon() +
               (e_.eg.maxFifoDepth() + 2) * period + 4;
    // Arm after the fill transient: once every Output cell has fired the
    // pipe is loaded end to end, and by this time bound the deepest pipeline
    // (or FIFO ring) has loaded in any case.  Arming is only a heuristic —
    // recurs() is the proof — so it may be early but should not be late.
    arm_ = (e_.eg.maxFifoDepth() + 2) * period + e_.wakeHorizon() +
           e_.settleWindow();
    maxSpan_ = 16 * (period + e_.wakeHorizon()) + 64;
    firstSpan_ = span_ = 4 * period;
    const std::size_t n = e_.eg.size();
    compositeOf_.assign(n, 0);
    outputOf_.assign(n, 0);
    for (std::uint32_t c = 0; c < n; ++c) {
      const exec::Cell& cl = e_.eg.cell(c);
      if (cl.op == dfg::Op::Fifo && cl.fifoDepth >= 2) {
        compositeOf_[c] = static_cast<std::uint32_t>(composites_.size());
        composites_.push_back(c);
      }
      if (dfg::isSource(cl.op)) sources_.push_back(c);
      if (cl.op == dfg::Op::Output) {
        outputOf_[c] = static_cast<std::uint32_t>(outputCells_.size());
        outputCells_.push_back(c);
      }
    }
    isControl_.assign(e_.eg.slotCount(), 0);
    for (std::uint32_t s : ss_.controlSlots) isControl_[s] = 1;
    kind_.resize(n);
    feedsControl_.assign(n, 0);
    for (std::uint32_t c = 0; c < n; ++c) {
      const exec::Cell& cl = e_.eg.cell(c);
      kind_[c] = SingleEngine::isComposite(cl) ? Kind::Composite
                 : dfg::isSource(cl.op)        ? Kind::Source
                 : cl.op == dfg::Op::Merge     ? Kind::Merge
                 : cl.op == dfg::Op::Output    ? Kind::Output
                 : cl.op == dfg::Op::Sink      ? Kind::Sink
                 : cl.op == dfg::Op::Id || cl.op == dfg::Op::Fifo ? Kind::Id
                                                                  : Kind::Pure;
      for (const exec::Dest& d : e_.eg.allDests(cl))
        feedsControl_[c] = feedsControl_[c] || isControl_[d.slot];
    }
  }

  void afterStep(const std::vector<std::uint32_t>& toFire) {
    if (done_ || !armed()) return;
    if (!haveBase_) {
      takeSnap(base_);
      setBase();
      return;
    }
    for (std::uint32_t c : toFire) {
      const exec::FifoState& f = e_.fifoDyn[c];
      const bool composite = SingleEngine::isComposite(e_.eg.cell(c));
      log_.push_back({c, composite && f.doEmit, composite && f.doAccept});
    }
    takeSnap(cur_);
    if (recurs()) {
      tryJump();
      return;
    }
    if (e_.now - base_.t > span_) {
      // The window since the base never recurred: rebase and retry, giving
      // up after enough attempts that the run is clearly not periodic at
      // any phase we would catch (jitter-free runs recur within one span).
      // The span starts at a few periods, so a base taken while the pipe
      // was still filling is soon replaced, and doubles up to maxSpan_ for
      // longer periods.
      if (++attempts_ >= kMaxAttempts) {
        giveUp("no steady period detected");
        return;
      }
      span_ = std::min(2 * span_, maxSpan_);
      std::swap(base_, cur_);
      setBase();
    }
  }

 private:
  static constexpr int kMaxAttempts = 16;

  bool armed() {
    if (armed_) return true;
    armed_ = e_.now >= arm_ ||
             std::all_of(outputCells_.begin(), outputCells_.end(),
                         [&](std::uint32_t o) { return e_.firings[o] > 0; });
    return armed_;
  }

  /// Stops looking for periods for the rest of the run, so the remaining
  /// steps cost what EventDriven's do.
  void giveUp(const char* why) {
    done_ = true;
    if (e_.result.compiled.reason.empty()) e_.result.compiled.reason = why;
  }

  /// base_ was just taken at this step: capture the values the replay of the
  /// window starting here begins from.
  void setBase() {
    haveBase_ = true;
    log_.clear();
    captureValues(baseValues_);
  }

  void captureValues(Values& v) const {
    const std::size_t slots = e_.eg.slotCount();
    v.slot.resize(slots);
    for (std::uint32_t s = 0; s < slots; ++s) {
      const exec::Operand& o = e_.eg.operandAt(s);
      v.slot[s] = o.isLiteral() ? o.literal : e_.slots[s].v;
    }
    v.ring.resize(composites_.size());
    v.head.resize(composites_.size());
    v.count.resize(composites_.size());
    for (std::size_t ci = 0; ci < composites_.size(); ++ci) {
      const exec::FifoState& f = e_.fifoDyn[composites_[ci]];
      v.ring[ci] = f.vals;
      v.head[ci] = f.head;
      v.count[ci] = f.count;
    }
    v.emitted.resize(e_.eg.size());
    for (std::uint32_t c = 0; c < e_.eg.size(); ++c)
      v.emitted[c] = e_.cellDyn[c].emitted;
  }

  void canonWords(std::vector<std::int64_t>& w) const {
    w.clear();
    const std::int64_t now = e_.now;
    // Each timestamp relative to `now`, floored where it stops mattering:
    // below the floor every value behaves alike, so a timestamp written
    // once, early (a boundary path, an idle ring), does not hold a
    // recurrence back.  Slot readyAt/freedAt, busyUntil and ring readyAt
    // are only compared with the current time (floor 0); a ring's last
    // accept/emit bound the next by one period; an emit time bounds an
    // accept by the acknowledge wave across the ring.
    const auto canon = [now](std::int64_t tau, std::int64_t floor) {
      return std::max(tau - now, floor);
    };
    for (std::uint32_t s = 0;
         s < static_cast<std::uint32_t>(e_.eg.slotCount()); ++s) {
      const exec::Slot& sl = e_.slots[s];
      w.push_back(sl.full ? 1 : 0);
      w.push_back(canon(sl.readyAt, 0));
      w.push_back(canon(sl.freedAt, 0));
    }
    for (std::uint32_t c = 0; c < e_.eg.size(); ++c)
      w.push_back(canon(e_.cellDyn[c].busyUntil, 0));
    w.push_back(canon(e_.lastFire_, -horizon_));
    const exec::FifoTiming t = e_.fifoTiming();
    for (std::uint32_t c : composites_) {
      const exec::FifoState& f = e_.fifoDyn[c];
      const auto ring = static_cast<std::uint32_t>(f.ring());
      w.push_back(f.count);
      w.push_back(f.accepted >= f.ring() ? 1 : 0);
      w.push_back(f.emitted >= f.ring() ? 1 : 0);
      w.push_back(canon(f.lastAccept, -t.period()));
      w.push_back(canon(f.lastEmit, -t.period()));
      // Live ring entries, head-relative (head tracks emitted mod ring, so
      // relative positions align across snapshots); dead entries are stale
      // storage the firing rule never reads.
      for (std::uint32_t i = 0; i < f.count; ++i)
        w.push_back(canon(f.readyAt[(f.head + i) % ring], 0));
      // Emit times, aligned relative to the next accept (canAccept reads
      // emitAt[accepted % ring] for the backward acknowledge wave).
      for (std::uint32_t i = 0; i < ring; ++i)
        w.push_back(canon(f.emitAt[static_cast<std::size_t>(
                              (f.accepted + i) % f.ring())],
                          -f.ring() * t.ackDelay));
    }
  }

  void takeSnap(Snap& s) const {
    const std::size_t n = e_.eg.size();
    s.t = e_.now;
    canonWords(s.words);
    // Enabling and routing read the values in control slots; an empty slot
    // records a placeholder (its `full` word already differs).
    s.control.resize(ss_.controlSlots.size());
    for (std::size_t i = 0; i < ss_.controlSlots.size(); ++i) {
      const exec::Slot& sl = e_.slots[ss_.controlSlots[i]];
      s.control[i] = sl.full ? sl.v : Value();
    }
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

  /// cur_ repeats base_: same canonical state and control occupants, a
  /// firing in between, and every composite ring either wrapped (each
  /// emitAt entry holds a real emit time, so a rotated entry is
  /// reconstructable) or idle across the window (a jump leaves it in place).
  bool recurs() const {
    if (cur_.totalFirings <= base_.totalFirings || cur_.words != base_.words)
      return false;
    for (std::size_t i = 0; i < cur_.control.size(); ++i)
      if (!same(cur_.control[i], base_.control[i])) return false;
    for (std::size_t ci = 0; ci < composites_.size(); ++ci) {
      const std::int64_t ring = e_.fifoDyn[composites_[ci]].ring();
      const bool wrapped =
          base_.fifoAccepted[ci] >= ring && base_.fifoEmitted[ci] >= ring;
      const bool idle = cur_.fifoAccepted[ci] == base_.fifoAccepted[ci] &&
                        cur_.fifoEmitted[ci] == base_.fifoEmitted[ci];
      if (!wrapped && !idle) return false;
    }
    return true;
  }

  // --- window replay --------------------------------------------------------

  /// Replays the logged window once over `v`, computing every value the way
  /// fire() does.  Output appends go to out[outputOf_[cell]].  With `record`
  /// every control-slot write is logged; otherwise each must equal the
  /// logged write at the same position, and the first that differs stops
  /// the replay with false.  Throws ValueError where fire() would.
  /// It is the hot loop of every replayed jump, and its speed moved by
  /// about 8% with where it started in a 32-byte fetch block (measured on
  /// the `figures` workload when an unrelated function in this file
  /// shrank), so it starts on a cache line.
  [[gnu::aligned(64)]] bool replayWindow(Values& v, bool record,
                                         std::vector<std::vector<Value>>& out) {
    const exec::ExecutableGraph& eg = e_.eg;
    std::size_t pos = 0;
    bool ok = true;
    // Control writes of the cell just fired (feedsControl_ cells only).
    const auto checkControl = [&](exec::DestSpan ds) {
      for (const exec::Dest& d : ds) {
        if (!isControl_[d.slot]) continue;
        const Value& x = v.slot[d.slot];
        if (record) ctlWrites_.push_back(x);
        else if (pos >= ctlWrites_.size() || !same(ctlWrites_[pos++], x))
          ok = false;
      }
    };
    const auto put = [&](exec::DestSpan ds, const Value& x) {
      for (const exec::Dest& d : ds) v.slot[d.slot] = x;
    };
    for (const Fired& f : log_) {
      const exec::Cell& cl = eg.cell(f.cell);
      const Value* in = v.slot.data() + cl.firstPort;
      const exec::DestSpan always = eg.alwaysDests(cl);
      exec::DestSpan tagged;
      switch (kind_[f.cell]) {
        case Kind::Composite: {
          const std::uint32_t ci = compositeOf_[f.cell];
          std::vector<Value>& ring = v.ring[ci];
          const auto len = static_cast<std::uint32_t>(ring.size());
          std::uint32_t& head = v.head[ci];
          std::uint32_t& count = v.count[ci];
          if (f.emit) {
            put(always, ring[head]);
            if (++head == len) head = 0;
            --count;
          }
          if (f.accept) {
            std::uint32_t at = head + count;
            if (at >= len) at -= len;
            ring[at] = in[0];
            ++count;
          }
          break;
        }
        case Kind::Source:
          put(always, e_.sourceValue(f.cell, cl, v.emitted[f.cell]++));
          break;
        case Kind::Id:
        case Kind::Pure:
        case Kind::Merge: {
          const bool gate = cl.hasGate && in[cl.numPorts].asBoolean();
          if (cl.hasGate) tagged = eg.taggedDests(cl, gate);
          if (kind_[f.cell] == Kind::Pure) {
            const Value x = exec::applyPure(
                cl.op, [in](int p) -> const Value& { return in[p]; });
            put(always, x);
            put(tagged, x);
            break;
          }
          // Id and Merge pass an operand through: copy it straight from its
          // slot (no destination is one of this cell's own ports).
          const Value& x =
              kind_[f.cell] == Kind::Id ? in[0] : in[in[0].asBoolean() ? 1 : 2];
          put(always, x);
          put(tagged, x);
          break;
        }
        case Kind::Output:
          if (cl.hasGate) (void)in[cl.numPorts].asBoolean();
          out[outputOf_[f.cell]].push_back(in[0]);
          break;
        case Kind::Sink:
          if (cl.hasGate) (void)in[cl.numPorts].asBoolean();
          break;
      }
      if (feedsControl_[f.cell]) {
        checkControl(always);
        checkControl(tagged);
        if (!ok) return false;
      }
    }
    return record || pos == ctlWrites_.size();
  }

  /// The replay reproduced the live machine at the recurrence: every slot
  /// occupant, ring, source position and output appended in the window.
  bool reproducesLive(const Values& v,
                      const std::vector<std::vector<Value>>& out) const {
    for (std::uint32_t s = 0; s < v.slot.size(); ++s)
      if (!e_.eg.operandAt(s).isLiteral() && !same(v.slot[s], e_.slots[s].v))
        return false;
    for (std::size_t ci = 0; ci < composites_.size(); ++ci) {
      const exec::FifoState& f = e_.fifoDyn[composites_[ci]];
      if (v.head[ci] != f.head || v.count[ci] != f.count) return false;
      for (std::size_t i = 0; i < f.vals.size(); ++i)
        if (!same(v.ring[ci][i], f.vals[i])) return false;
    }
    for (std::uint32_t c : sources_)
      if (v.emitted[c] != e_.cellDyn[c].emitted) return false;
    for (std::size_t oi = 0; oi < outputCells_.size(); ++oi) {
      const std::uint32_t o = outputCells_[oi];
      if (out[oi].size() != cur_.firings[o] - base_.firings[o]) return false;
      if (out[oi].empty()) continue;
      const std::vector<Value>& live =
          e_.outputs.at(e_.eg.streamName(e_.eg.cell(o)));
      const auto first = static_cast<std::size_t>(base_.firings[o]);
      for (std::size_t i = 0; i < out[oi].size(); ++i)
        if (!same(out[oi][i], live[first + i])) return false;
    }
    return true;
  }

  /// Replays up to `nWin` skipped windows into replayed_ / replayedOut_ and
  /// returns how many were verified: -1 when the base window does not
  /// reproduce the live values, 0 when the first skipped window already
  /// departs from the base window's control.
  std::int64_t replay(std::int64_t nWin) {
    const std::size_t outs = outputCells_.size();
    Values& v = replayed_;
    v = baseValues_;
    std::vector<std::vector<Value>> baseOut(outs);
    ctlWrites_.clear();
    try {
      replayWindow(v, /*record=*/true, baseOut);
    } catch (const ValueError&) {
      return -1;  // the live window evaluated these very firings
    }
    if (!reproducesLive(v, baseOut)) return -1;

    replayedOut_.assign(outs, {});
    const auto nextWindow = [&] {
      try {
        return replayWindow(v, /*record=*/false, replayedOut_);
      } catch (const ValueError&) {
        return false;
      }
    };
    std::int64_t good = 0;
    while (good < nWin && nextWindow()) ++good;
    if (good == nWin || good == 0) return good;
    // Window good+1 departed part-way through: replay the verified windows
    // again from the values at the end of the base window, which are the
    // live machine's (reproducesLive just matched them).
    captureValues(v);
    replayedOut_.assign(outs, {});
    for (std::int64_t w = 1; w <= good; ++w)
      replayWindow(v, /*record=*/false, replayedOut_);
    return good;
  }

  // --- the jump -------------------------------------------------------------

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
      giveUp("steady state reached with fewer than two periods remaining");
      return;
    }

    // --- reconstruct every value the skipped windows produce --------------
    std::optional<sched::SteadyLoop> loop;
    if (ss_.path == sched::ValuePath::SteadyLoop) {
      loop.emplace(e_.eg, ss_);
      requestLoop(*loop, nWin, dF);
      if (!loop->compute()) loop.reset();
    }
    if (!loop) {
      nWin = replay(nWin);
      if (nWin < 0) {
        giveUp("window replay did not reproduce the live steady window");
        return;
      }
      if (nWin == 0) return;  // keep the base: a longer period may recur
    }
    apply(nWin, delta, dF, dTotal, loop ? &*loop : nullptr);
  }

  void requestLoop(sched::SteadyLoop& loop, std::int64_t nWin,
                   const std::vector<std::int64_t>& dF) const {
    for (std::uint32_t c : sources_)
      if (e_.eg.cell(c).op == dfg::Op::Input)
        loop.bindSource(c, e_.sourceData[c]);
    for (std::uint32_t c = 0; c < e_.eg.size(); ++c) {
      if (dF[c] <= 0) continue;
      const exec::Cell& cl = e_.eg.cell(c);
      const auto first = static_cast<std::int64_t>(cur_.firings[c]);
      if (dfg::producesResult(cl.op) || dfg::isSource(cl.op))
        loop.request(c, first, first + nWin * dF[c]);
      if (cl.op == dfg::Op::Output && !e_.eg.operand(cl, 0).isLiteral())
        loop.request(e_.eg.operand(cl, 0).producer, first,
                     first + nWin * dF[c]);
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
  }

  /// Advances the machine by nWin windows: counters and timestamps in bulk,
  /// values from `loop` when given, else from the replay.
  void apply(std::int64_t nWin, std::int64_t delta,
             const std::vector<std::int64_t>& dF, std::int64_t dTotal,
             const sched::SteadyLoop* loop) {
    const std::size_t n = e_.eg.size();
    const std::int64_t K = nWin * delta;
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
      exec::Slot& sl = e_.slots[s];
      sl.readyAt += K;
      sl.freedAt += K;
      const exec::Operand& o = e_.eg.operandAt(s);
      if (o.isLiteral()) continue;
      if (!loop) {
        sl.v = std::move(replayed_.slot[s]);
        continue;
      }
      if (!sl.full || dF[o.producer] <= 0) continue;
      // Capacity-1 in-order delivery: the occupant is always the producer's
      // latest token.
      sl.v = loop->value(
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
      if (!loop) {
        VALPIPE_CHECK_MSG(replayed_.head[ci] == f.head &&
                              replayed_.count[ci] == f.count,
                          "window replay lost track of a composite ring");
        f.vals = std::move(replayed_.ring[ci]);
      } else if (dE > 0) {
        for (std::uint32_t i = 0; i < f.count; ++i)
          f.vals[(f.head + i) % ring] = loop->value(c, f.emitted + i);
      }
    }

    for (std::size_t oi = 0; oi < outputCells_.size(); ++oi) {
      const std::uint32_t o = outputCells_[oi];
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
      const std::int64_t total = nWin * dF[o];
      times.reserve(times.size() + static_cast<std::size_t>(total));
      for (std::int64_t w = 1; w <= nWin; ++w)
        for (std::int64_t m = 0; m < dF[o]; ++m)
          times.push_back(winTimes[static_cast<std::size_t>(m)] + w * delta);
      e_.stop.advance(e_.stopSlotOf[o], total);
      if (!loop) {
        vals.insert(vals.end(),
                    std::make_move_iterator(replayedOut_[oi].begin()),
                    std::make_move_iterator(replayedOut_[oi].end()));
        continue;
      }
      const exec::Operand& in0 = e_.eg.operand(cl, 0);
      const auto first = static_cast<std::int64_t>(cur_.firings[o]);
      vals.reserve(vals.size() + static_cast<std::size_t>(total));
      // The appended tokens are contiguous in the producer's index space;
      // read the loop's block directly.
      if (in0.isLiteral()) {
        vals.insert(vals.end(), static_cast<std::size_t>(total), in0.literal);
      } else {
        const double* blk = loop->realBlock(in0.producer, first);
        vals.insert(vals.end(), blk, blk + total);
      }
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

    e_.lastFire_ += K;  // exact: the window contained a firing, so the
                        // replayed trajectory's last firing shifts by K
    e_.now = tNew;
    // The pre-jump wheel's entries would alias post-jump buckets; rebuild it
    // from the shifted state, as a restore does.
    e_.reseedWheel();
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
    ++info.jumps;
    info.windowsSkipped += nWin;
    info.cyclesSkipped += K;
    info.firingsSkipped += static_cast<std::uint64_t>(nWin * dTotal);
    (loop ? info.vectorized : info.replayed) = true;

    // Re-arm: the remaining run may admit another (small) jump, and the
    // detector is cheap once the state is already periodic.
    haveBase_ = false;
    attempts_ = 0;
    span_ = firstSpan_;
  }

  SingleEngine& e_;
  const sched::SteadySchedule& ss_;
  std::vector<std::uint32_t> composites_;
  std::vector<std::uint32_t> sources_;
  std::vector<std::uint32_t> outputCells_;
  std::vector<std::uint32_t> compositeOf_;  ///< per cell: composites_ index
  std::vector<std::uint32_t> outputOf_;     ///< per cell: outputCells_ index
  std::vector<char> isControl_;             ///< per slot: a control port
  std::vector<Kind> kind_;                  ///< per cell
  std::vector<char> feedsControl_;          ///< per cell: a dest is control
  std::int64_t horizon_ = 0;
  std::int64_t arm_ = 0;
  std::int64_t maxSpan_ = 0;
  std::int64_t firstSpan_ = 0, span_ = 0;  ///< current rebase span
  int attempts_ = 0;
  bool armed_ = false;
  bool haveBase_ = false;
  bool done_ = false;
  Snap base_, cur_;
  std::vector<Fired> log_;   ///< firings since the base snapshot, in order
  Values baseValues_;        ///< values at the base snapshot
  std::vector<Value> ctlWrites_;  ///< the base window's control writes
  Values replayed_;          ///< values at the jump target
  std::vector<std::vector<Value>> replayedOut_;  ///< per output cell
};

}  // namespace

void runCompiled(SingleEngine& e) {
  auto& info = e.result.compiled;
  info.requested = true;
  const sched::SteadySchedule ss = sched::computeSteadySchedule(e.eg);
  if (!ss.accepted) {
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
  e.runEventLoop(
      [&drv](const std::vector<std::uint32_t>& toFire) {
        drv.afterStep(toFire);
      });
}

}  // namespace valpipe::machine::detail

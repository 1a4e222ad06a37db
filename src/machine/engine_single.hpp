// The timed engine over the flattened exec::ExecutableGraph (internal
// header).
//
// SingleEngine owns the run's flat state (operand slots, per-cell dynamic
// scalars, composite-FIFO rings), implements the §2/§3 firing discipline
// over it — enabling test, firing effects, acknowledge bookkeeping — and
// drives it with one run loop, runEventLoop: it examines only cells woken by
// an event (token arrival, acknowledge, function-unit release, own-firing
// completion, array-memory store), popped per instruction time from
// exec::ReadyQueue and scanned in the rotating priority order of the
// Reference stepper's full rescan.  runEventDriven is the plain
// instantiation; the compiled scheduler (machine/engine_compiled.cpp)
// instantiates it with a per-step hook that watches for a steady state and
// fast-forwards the run by whole periods.
//
// Both phases of an examined instruction time are kept two-phase (all
// enabling decisions before any firing is applied), and candidate cells are
// ordered exactly as the full rescan orders them, so every MachineResult
// field — outputs, arrival times, per-cell firings, cycles, packet and
// busy-time counters — is bit-identical across the schedulers and the
// Reference stepper (machine/engine_reference.cpp).
//
// This header is internal to src/machine (it is not part of the public
// simulate() surface): engine.cpp's dispatch constructs the engine,
// engine_compiled.cpp drives it, and engine_reference.cpp shares the trace
// labelling below.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/cell_state.hpp"
#include "exec/executable_graph.hpp"
#include "exec/fifo.hpp"
#include "exec/fu_pool.hpp"
#include "exec/ops.hpp"
#include "exec/packet_counters.hpp"
#include "exec/ready_queue.hpp"
#include "exec/router.hpp"
#include "exec/stop.hpp"
#include "fault/injector.hpp"
#include "guard/diagnosis.hpp"
#include "guard/guard.hpp"
#include "machine/engine.hpp"
#include "machine/engine_snapshot.hpp"
#include "obs/probe.hpp"
#include "recover/snapshot.hpp"
#include "support/check.hpp"

namespace valpipe::machine::detail {

struct SingleEngine {
  const exec::ExecutableGraph& eg;
  const MachineConfig& cfg;
  const RunOptions& opts;

  std::vector<exec::Slot> slots;       ///< per operand slot (gates included)
  std::vector<exec::CellDyn> cellDyn;  ///< per cell emitted / busyUntil
  /// Composite-FIFO ring state (exec::makeFifoStates), non-empty entries for
  /// Fifo cells of depth >= 2 only.  Written through a const enabled(): the
  /// phase-A accept/emit decision is cached here so phase B applies exactly
  /// what phase A saw (unobservable bookkeeping, like a memo).
  mutable std::vector<exec::FifoState> fifoDyn;
  std::vector<std::uint64_t> firings;  ///< per cell firing counts

  exec::Router router;
  exec::PacketCounters packets;
  std::uint64_t totalFirings = 0;
  run::StreamMap outputs;
  std::map<std::string, std::vector<std::int64_t>> outputTimes;
  run::StreamMap amFinal;

  /// Input / AmFetch cells: the backing stream read by sourceValue.
  std::vector<const std::vector<Value>*> sourceData;
  /// Output cells: expected-output counter index (-1 when unexpected).
  std::vector<std::int32_t> stopSlotOf;

  std::int64_t now = 0;
  bool consumedAny = false;   ///< current firing consumed a non-literal port
  bool deliveredAny = false;  ///< current firing filled a destination slot

  /// Observability hooks; inert (null sinks) unless the run was given sinks
  /// in its RunOptions.  Every call below is a null-pointer test when inert,
  /// keeping the no-sink fast path free.
  obs::LaneProbe probe;

  /// Fault injector and invariant guards; both follow the same null-pointer
  /// zero-cost contract as `probe`.  `grd` is bound when the run sets
  /// RunOptions::guards.
  fault::Injector inj;
  guard::LaneGuard grd;

  exec::FuPool fu;
  exec::StopCondition stop;
  exec::ReadyQueue* rq = nullptr;  ///< the running event loop's time wheel
  const dfg::Graph* lowered = nullptr;  ///< for the stall diagnosis
  std::optional<guard::State> gst;

  /// Instruction time of the most recent firing (-1 before any), maintained
  /// by the run loop; part of the quiescence decision and therefore part of
  /// the state a fast-forward (or a snapshot) must carry.
  std::int64_t lastFire_ = -1;

  /// Scheduler label recorded in captured snapshots and metrics (set by the
  /// dispatch).
  const char* schedLabel = "EventDriven";
  /// Next instruction time a checkpoint is due at (max = checkpointing off).
  std::int64_t nextCkpt_ = std::numeric_limits<std::int64_t>::max();
  /// Wall-clock deadline state (opts.deadlineMicros).
  std::chrono::steady_clock::time_point ddlAt_{};
  std::uint32_t ddlTick_ = 0;

  MachineResult result;

  SingleEngine(const exec::ExecutableGraph& graph, const MachineConfig& config,
               const run::StreamMap& inputs, const RunOptions& o)
      : eg(graph),
        cfg(config),
        opts(o),
        slots(graph.slotCount()),
        cellDyn(graph.size()),
        fifoDyn(exec::makeFifoStates(graph)),
        firings(graph.size(), 0),
        sourceData(graph.size(), nullptr),
        stopSlotOf(graph.size(), -1),
        inj(o.faults),
        fu(config.fuUnits, config.execLatency),
        stop(o.expectedOutputs) {
    if (opts.guards) {
      gst.emplace(eg);
      grd = guard::LaneGuard(&*gst, &eg);
    }
    // Load-time tokens (counter-loop bootstraps): present at t = 0.
    for (std::uint32_t s = 0; s < eg.slotCount(); ++s) {
      const exec::Operand& o2 = eg.operandAt(s);
      if (o2.hasInitial) {
        slots[s].full = true;
        slots[s].v = o2.initial;
      }
    }
    amFinal = opts.amInitial;
    // Fetched regions must exist even when nothing is pre-loaded (stores
    // fill them during the run); resolve stream bindings once.
    for (std::uint32_t c = 0; c < eg.size(); ++c) {
      const exec::Cell& cl = eg.cell(c);
      if (cl.op == dfg::Op::AmFetch) amFinal[eg.streamName(cl)];
    }
    for (std::uint32_t c = 0; c < eg.size(); ++c) bindCell(c, inputs);
    if (opts.placement) {
      VALPIPE_CHECK_MSG(opts.placement->peOf.size() == eg.size(),
                        "placement does not match the graph");
      router = exec::Router(opts.placement->peOf, opts.placement->peCount,
                            cfg.interPeDelay);
    }
    if (opts.checkpoints && opts.checkpointEvery > 0)
      nextCkpt_ = (opts.restoreFrom ? opts.restoreFrom->now : 0) +
                  opts.checkpointEvery;
    if (opts.deadlineMicros > 0)
      ddlAt_ = std::chrono::steady_clock::now() +
               std::chrono::microseconds(opts.deadlineMicros);
  }

  /// Resolves cell `c`'s stream binding (after amFinal holds every fetched
  /// region): input data, fetched region, or expected-output counter index.
  void bindCell(std::uint32_t c, const run::StreamMap& inputs) {
    const exec::Cell& cl = eg.cell(c);
    if (cl.op == dfg::Op::Input) {
      auto it = inputs.find(eg.streamName(cl));
      VALPIPE_CHECK_MSG(it != inputs.end(),
                        "missing input stream '" + eg.streamName(cl) + "'");
      VALPIPE_CHECK_MSG(static_cast<std::int64_t>(it->second.size()) ==
                            cl.tokensPerWave,
                        "input '" + eg.streamName(cl) + "' has wrong length");
      sourceData[c] = &it->second;
    } else if (cl.op == dfg::Op::AmFetch) {
      sourceData[c] = &amFinal.at(eg.streamName(cl));
    } else if (cl.op == dfg::Op::Output) {
      stopSlotOf[c] = stop.slotFor(eg.streamName(cl));
    }
  }

  /// Schedules `cell` for examination at `at`.
  void wake(std::uint32_t cell, std::int64_t at) {
    // rq is always set while a run loop wakes cells.  The test stays on
    // measurement: removing it once changed GCC 12's inlining of wake() into
    // runEventLoop and slowed the plain event loop ~6% on fig5 (4-core x86
    // VM, -O3).  Re-measure before removing it.
    if (rq) rq->wake(cell, at);
  }

  /// Rebuilds the wheel from the materialized state at boundary `now`: a
  /// restore seeds its fresh wheel this way, and the compiled scheduler's
  /// jump reseeds after shifting the state (see engine_snapshot.hpp for why
  /// the rebuilt wake set is exact).
  void reseedWheel() {
    rq->clear();
    seedRestoreWakes(eg, slots.data(), cellDyn.data(), fifoDyn.data(),
                     fifoTiming(), now, wakeHorizon(),
                     [this](std::uint32_t c, std::int64_t at) {
                       rq->wake(c, at);
                     });
  }

  // --- firing discipline --------------------------------------------------

  std::int64_t sourceLimit(std::uint32_t c, const exec::Cell& cl) const {
    if (cl.op == dfg::Op::AmFetch) {
      // Reads the region sequentially as stores fill it: the limit is
      // whatever is available now, capped at one region read per wave.
      return std::min<std::int64_t>(
          cl.tokensPerWave * opts.waves,
          static_cast<std::int64_t>(sourceData[c]->size()));
    }
    return cl.tokensPerWave * opts.waves;
  }

  Value sourceValue(std::uint32_t c, const exec::Cell& cl,
                    std::int64_t k) const {
    const std::int64_t j = k % cl.tokensPerWave;
    switch (cl.op) {
      case dfg::Op::Input:
        return (*sourceData[c])[static_cast<std::size_t>(j)];
      case dfg::Op::BoolSeq: return Value(eg.patternBit(cl, j));
      case dfg::Op::IndexSeq:
        return Value(cl.seqLo + (j / cl.seqRepeat) % (cl.seqHi - cl.seqLo + 1));
      case dfg::Op::AmFetch:
        return (*sourceData[c])[static_cast<std::size_t>(k)];
      default: VALPIPE_UNREACHABLE("not a source");
    }
  }

  bool slotReady(const exec::Slot& s) const {
    return s.full && s.readyAt <= now;
  }
  bool slotFree(const exec::Slot& s) const {
    return !s.full && s.freedAt <= now;
  }

  bool portReady(const exec::Cell& cl, int port) const {
    const std::uint32_t si = eg.slotOf(cl, port);
    return eg.operandAt(si).isLiteral() || slotReady(slots[si]);
  }

  Value portValue(const exec::Cell& cl, int port) const {
    const std::uint32_t si = eg.slotOf(cl, port);
    const exec::Operand& o = eg.operandAt(si);
    return o.isLiteral() ? o.literal : slots[si].v;
  }

  bool destsFree(exec::DestSpan ds) const {
    for (const exec::Dest& d : ds)
      if (!slotFree(slots[d.slot])) return false;
    return true;
  }

  static bool isComposite(const exec::Cell& cl) {
    return cl.op == dfg::Op::Fifo && cl.fifoDepth >= 2;
  }

  /// Per-stage hop times of the Id chain a composite FIFO stands for (the
  /// chain's stages are Pe-class identity cells, like the Fifo cell itself).
  exec::FifoTiming fifoTiming() const {
    return exec::FifoTiming::of(
        cfg.execLatency[static_cast<std::size_t>(dfg::fuClass(dfg::Op::Fifo))],
        cfg.routeDelay, cfg.ackDelay);
  }

  /// Extra settle/wake span composite cells introduce (0 without them): a
  /// composite holds tokens for up to (k-1) forward or backward hop times
  /// with no firing anywhere, which both the quiescence window and the time
  /// wheel must cover.
  std::int64_t fifoSlack() const {
    return exec::fifoSettleSlack(eg.maxFifoDepth(), fifoTiming());
  }

  /// Enabled test (phase A, reads only start-of-cycle state).
  bool enabled(std::uint32_t c) const {
    const exec::Cell& cl = eg.cell(c);
    const exec::CellDyn& dyn = cellDyn[c];
    if (dyn.busyUntil > now) return false;

    if (isComposite(cl)) {
      exec::FifoState& f = fifoDyn[c];
      const exec::FifoTiming t = fifoTiming();
      f.doEmit = f.canEmit(t, now) && destsFree(eg.alwaysDests(cl));
      f.doAccept = portReady(cl, 0) && f.canAccept(t, now);
      f.decidedAt = now;
      return f.doEmit || f.doAccept;
    }
    if (dfg::isSource(cl.op)) {
      if (dyn.emitted >= sourceLimit(c, cl)) return false;
      return destsFree(eg.alwaysDests(cl));
    }
    std::optional<bool> gateVal;
    if (cl.hasGate) {
      if (!portReady(cl, exec::kGatePort)) return false;
      gateVal = portValue(cl, exec::kGatePort).asBoolean();
    }
    if (cl.op == dfg::Op::Merge) {
      if (!portReady(cl, 0)) return false;
      const bool sel = portValue(cl, 0).asBoolean();
      if (!portReady(cl, sel ? 1 : 2)) return false;
    } else {
      for (int p = 0; p < static_cast<int>(cl.numPorts); ++p)
        if (!portReady(cl, p)) return false;
    }
    if (!dfg::producesResult(cl.op)) return true;
    if (!destsFree(eg.alwaysDests(cl))) return false;
    return !gateVal || destsFree(eg.taggedDests(cl, *gateVal));
  }

  /// The acknowledge for `slot` reaches `producer`: it may re-enable from
  /// `wakeAt`, the instruction time the freed destination becomes visible.
  void ackProducer(std::uint32_t producer, std::uint32_t slot,
                   std::int64_t wakeAt) {
    grd.onAck(producer, slot, now);
    wake(producer, wakeAt);
  }

  void consume(std::uint32_t c, const exec::Cell& cl, int port) {
    const std::uint32_t si = eg.slotOf(cl, port);
    const exec::Operand& o = eg.operandAt(si);
    if (o.isLiteral()) return;
    exec::Slot& s = slots[si];
    grd.onConsume(c, si, s.full, now);
    s.full = false;
    ++packets.ackPackets;
    consumedAny = true;
    if (inj.dropAck()) {
      // The acknowledge is lost in the network: the producer never sees the
      // destination freed, so it blocks forever (the watchdog names it).
      s.freedAt = fault::kLostPacket;
      return;
    }
    s.freedAt = now + cfg.ackDelay;
    probe.ack(o.producer, c, now, s.freedAt);
    const std::int64_t wakeAt = std::max<std::int64_t>(s.freedAt, now + 1);
    ackProducer(o.producer, si, wakeAt);
    if (inj.dupAck()) ackProducer(o.producer, si, wakeAt);
  }

  /// One result packet lands in destination `d` at `at`; its consumer is
  /// re-examined at `wakeAt`.
  void deliverOne(const exec::Dest& d, const Value& v, std::int64_t at,
                  std::int64_t wakeAt) {
    exec::Slot& s = slots[d.slot];
    grd.onDeliver(d.consumer, d.slot, s.full, at);
    VALPIPE_CHECK_MSG(!s.full, "result packet delivered into occupied slot");
    s.full = true;
    s.v = v;
    s.readyAt = at;
    wake(d.consumer, wakeAt);
  }

  void deliver(exec::DestSpan ds, const Value& v, std::uint32_t from,
               std::int64_t arrive) {
    if (!ds.empty()) deliveredAny = true;
    for (const exec::Dest& d : ds) {
      // Packets between cells in different PEs traverse the distribution
      // network (Fig. 1) and pay the extra hop.
      std::int64_t at = arrive + router.extraDelay(from, d.consumer, packets) +
                        inj.deliveryDelay();
      ++packets.resultPackets;
      grd.onSend(from, d.slot, now);
      // A dropped result still occupies the destination slot — the producer
      // must stay blocked (one active instance) — but it never becomes
      // ready, so the consumer starves and the watchdog can name it.
      const bool lost = inj.dropResult();
      if (lost) at = fault::kLostPacket;
      const std::int64_t wakeAt =
          lost ? now + 1 : std::max<std::int64_t>(at, now + 1);
      probe.result(from, d.consumer, now, at);
      deliverOne(d, v, at, wakeAt);
      if (inj.dupResult()) deliverOne(d, v, at, wakeAt);
    }
  }

  /// Phase B of a composite FIFO cell: applies the accept and/or emit the
  /// phase-A decision chose.  The emit is the composite's observable firing
  /// (the chain's tail stage is the one cell that delivers externally), so
  /// firing/packet counters and probes tick on emits only; an accept-only
  /// activation still occupies the cell (and one FU grant) for this
  /// instruction time, like the chain's head stage would.
  void fireFifo(std::uint32_t c, const exec::Cell& cl) {
    exec::FifoState& f = fifoDyn[c];
    VALPIPE_CHECK_MSG(f.decidedAt == now,
                      "composite FIFO fired without a phase-A decision");
    exec::CellDyn& dyn = cellDyn[c];
    dyn.busyUntil = now + 1;
    consumedAny = deliveredAny = false;
    const exec::FifoTiming t = fifoTiming();
    const std::int64_t ringLen = f.ring();
    if (f.doEmit) {
      ++firings[c];
      ++totalFirings;
      ++packets.opPacketsByClass[static_cast<std::size_t>(cl.fu)];
      probe.fire(c, now, cfg.execLatency[static_cast<std::size_t>(cl.fu)]);
      const Value v = f.pop(now);
      router.noteFiring(c);
      const std::int64_t arrive =
          now + cfg.execLatency[static_cast<std::size_t>(cl.fu)] +
          cfg.routeDelay + inj.execJitter();
      deliver(eg.alwaysDests(cl), v, c, arrive);
      // This emit's acknowledge wave re-admits a blocked accept after (k-1)
      // backward hops; the tail itself may re-emit one period later.
      wake(c, now + ringLen * t.ackDelay);
      wake(c, now + t.period());
    }
    if (f.doAccept) {
      const Value v = portValue(cl, 0);
      f.push(v, t, now);
      consume(c, cl, 0);
      // The head stage may accept again one period later.
      wake(c, now + t.period());
    }
    grd.onFifoFire(c, eg.slotOf(cl, 0), f.accepted, f.emitted, f.depth, now);
    // The next head token becomes emittable with no external event.  A
    // maturation time at or before `now` means the head could have emitted
    // this step and did not: the FIFO is blocked on its destinations, and
    // the acknowledge that frees them wakes it.
    if (f.count > 0) {
      const std::int64_t at =
          std::max(f.readyAt[f.head], f.lastEmit + t.period());
      if (at > now) wake(c, at);
    }
    if (!consumedAny && !deliveredAny) wake(c, now + 1);
  }

  /// Phase B: applies the firing of `c` at time `now`.
  void fire(std::uint32_t c) {
    const exec::Cell& cl = eg.cell(c);
    if (isComposite(cl)) return fireFifo(c, cl);
    exec::CellDyn& dyn = cellDyn[c];
    ++firings[c];
    ++totalFirings;
    ++packets.opPacketsByClass[static_cast<std::size_t>(cl.fu)];
    dyn.busyUntil = now + 1;
    consumedAny = deliveredAny = false;
    probe.fire(c, now, cfg.execLatency[static_cast<std::size_t>(cl.fu)]);

    std::optional<Value> out;
    std::optional<bool> gateVal;

    if (dfg::isSource(cl.op)) {
      out = sourceValue(c, cl, dyn.emitted);
      ++dyn.emitted;
    } else {
      if (cl.hasGate) {
        gateVal = portValue(cl, exec::kGatePort).asBoolean();
        consume(c, cl, exec::kGatePort);
      }
      auto in = [&](int p) { return portValue(cl, p); };
      switch (cl.op) {
        case dfg::Op::Merge: {
          const bool sel = in(0).asBoolean();
          out = in(sel ? 1 : 2);
          consume(c, cl, 0);
          consume(c, cl, sel ? 1 : 2);
          break;
        }
        case dfg::Op::Output: {
          outputs[eg.streamName(cl)].push_back(in(0));
          outputTimes[eg.streamName(cl)].push_back(now);
          stop.onOutput(stopSlotOf[c]);
          break;
        }
        case dfg::Op::Sink: break;
        case dfg::Op::AmStore: {
          amFinal[eg.streamName(cl)].push_back(in(0));
          // The store extends the region: matching fetchers may re-enable.
          for (std::uint32_t f : eg.fetchersOf(cl)) wake(f, now + 1);
          break;
        }
        default: out = exec::applyPure(cl.op, in); break;
      }
      if (cl.op != dfg::Op::Merge)
        for (int p = 0; p < static_cast<int>(cl.numPorts); ++p)
          consume(c, cl, p);
    }

    if (out.has_value()) {
      router.noteFiring(c);
      const std::int64_t arrive =
          now + cfg.execLatency[static_cast<std::size_t>(cl.fu)] +
          cfg.routeDelay + inj.execJitter();
      deliver(eg.alwaysDests(cl), *out, c, arrive);
      if (gateVal) deliver(eg.taggedDests(cl, *gateVal), *out, c, arrive);
    }
    // A firing that consumed a port or filled a destination will be re-woken
    // by the matching refill / acknowledge; only a firing with neither (a
    // source with no destinations, an all-literal consumer, ...) can be
    // enabled again at now + 1 with no further event.
    if (!consumedAny && !deliveredAny) wake(c, now + 1);
  }

  std::int64_t settleWindow() const {
    // Injected delays stretch how long a packet can be legitimately in
    // flight, and a composite FIFO holds tokens silently for up to its
    // traversal slack; the idle window must outlast both or an in-flight
    // token would be declared deadlock.
    return exec::quiesceWindow(
               cfg.routeDelay, cfg.ackDelay,
               *std::max_element(cfg.execLatency.begin(),
                                 cfg.execLatency.end())) +
           inj.maxExtraDelay() + fifoSlack();
  }

  /// Longest forward distance of any wake: a delivered packet's transit
  /// (execution + routing + the inter-PE hop), an acknowledge, a
  /// function-unit release, or a composite FIFO's internal traversal — the
  /// time wheel must span it without aliasing.  Injected delays widen it
  /// like settleWindow().
  std::int64_t wakeHorizon() const {
    return std::max<std::int64_t>(
               std::max<std::int64_t>(1, cfg.ackDelay),
               *std::max_element(cfg.execLatency.begin(),
                                 cfg.execLatency.end()) +
                   cfg.routeDelay + cfg.interPeDelay) +
           inj.maxExtraDelay() + fifoSlack();
  }

  // --- run control ----------------------------------------------------------

  /// The run-length cap: maxInstructionTimes tightens maxCycles when set.
  std::int64_t capCycles() const {
    return opts.maxInstructionTimes > 0
               ? std::min(opts.maxInstructionTimes, opts.maxCycles)
               : opts.maxCycles;
  }

  /// Idle window after which the machine is declared stuck: the natural
  /// settle window, or the caller's watchdog if that is longer.
  std::int64_t idleWindow() const {
    return opts.watchdog > 0 ? std::max(settleWindow(), opts.watchdog)
                             : settleWindow();
  }

  /// Deposits a snapshot into opts.checkpoints when one is due.  Runs at the
  /// end of an examined step (after phase B and the lastFire_ update), which
  /// is a materialized state boundary even under the compiled scheduler's
  /// fast-forward (the jump completes before the capture).
  void maybeCheckpoint() {
    if (now < nextCkpt_) return;
    opts.checkpoints->add(captureSingle(*this, schedLabel));
    nextCkpt_ = now + opts.checkpointEvery;
  }

  /// Aborts with run::DeadlineError once the wall-clock budget is spent.
  /// Sampled every 256 examined steps so the clock read stays off the hot
  /// path.
  void checkDeadline() {
    if (opts.deadlineMicros <= 0 || (++ddlTick_ & 255u) != 0) return;
    if (std::chrono::steady_clock::now() >= ddlAt_)
      throw run::DeadlineError(now, opts.deadlineMicros);
  }

  [[noreturn]] void throwStall(const char* why) {
    std::vector<guard::OutputProgress> progress;
    for (std::size_t i = 0; i < stop.size(); ++i)
      progress.push_back({stop.name(i), stop.want(i), stop.have(i)});
    throw run::StallError(
        now, guard::diagnoseStall(why, lowered, eg, slots.data(),
                                  cellDyn.data(), now, progress,
                                  inj.counters));
  }

  void finish() {
    if (!result.completed && opts.maxInstructionTimes > 0 &&
        now >= capCycles() && !stop.quiescentOk())
      throwStall("instruction-time cap reached with outputs incomplete");
    if (now >= opts.maxCycles) result.note = "maxCycles exceeded";
    result.faults = inj.counters;
    result.cycles = now;
    result.fuBusy = fu.busy();
    if (router.active()) result.pePackets = router.pePackets();
    result.firings = std::move(firings);
    result.outputs = std::move(outputs);
    result.outputTimes = std::move(outputTimes);
    result.amFinal = std::move(amFinal);
    result.totalFirings = totalFirings;
    result.packets = packets;
  }

  /// Event-driven schedule: advance directly to the next instruction time
  /// with a woken cell; candidates are examined in the same rotating order
  /// the Reference stepper's rescan uses, so the two stay bit-identical.
  ///
  /// `afterStep(toFire)` runs once per examined instruction time, after
  /// phase B (and the lastFire_ update) and before the completion check.
  /// The hook may mutate the whole engine — moving `now` forward and
  /// reseeding the wheel — which is exactly what the compiled scheduler's
  /// fast-forward does; the plain event-driven run passes a no-op that the
  /// compiler erases.
  template <class StepHook>
  void runEventLoop(StepHook&& afterStep) {
    const std::size_t n = eg.size();
    const std::int64_t window = idleWindow();
    const std::int64_t floorTime = inj.quiesceFloor();
    const std::int64_t cap = capCycles();
    const std::int64_t hzn = wakeHorizon();
    exec::ReadyQueue queue(n, hzn);
    rq = &queue;
    // The clock only moves forward: each examined step lies after the one
    // before.  A fresh run's first step is 0; a restored run's lies after
    // the snapshot's boundary, and a jump's after its target.
    std::int64_t prevStep = opts.restoreFrom ? now : -1;
    if (opts.restoreFrom) {
      // State was seeded by restoreSingle (now / lastFire_ included); rebuild
      // the wake set from it instead of capturing wheels in snapshots.
      reseedWheel();
      if (stop.outputsComplete()) {  // snapshot taken at the final boundary
        result.completed = true;
        ++now;
        rq = nullptr;
        finish();
        return;
      }
    } else {
      for (std::uint32_t c = 0; c < n; ++c) wake(c, 0);
      lastFire_ = -1;  // so the first quiescence break lands at `settle`,
                       // like an all-idle rescan
    }

    std::vector<std::uint32_t> cand;
    std::vector<std::uint32_t> ordered;
    std::vector<std::uint32_t> toFire;
    cand.reserve(n);
    ordered.reserve(n);
    toFire.reserve(n);
    std::vector<std::int64_t> candAt(n, -1);  ///< stamp for dense ordering
    for (;;) {
      checkDeadline();
      const std::int64_t tQuiesce =
          std::max(lastFire_, floorTime) + window + 1;
      if (queue.empty() || queue.nextTime() > tQuiesce) {
        // Nothing can fire before the idle counter trips.
        if (tQuiesce >= cap) {
          now = cap;
          break;
        }
        now = tQuiesce;
        result.completed = stop.quiescentOk();
        if (!result.completed) {
          if (opts.watchdog > 0)
            throwStall("watchdog: no cell fired within the idle window");
          result.note = "deadlock: outputs incomplete";
        }
        break;
      }
      if (queue.nextTime() >= cap) {
        now = cap;
        break;
      }
      now = queue.pop(cand);
      VALPIPE_CHECK_MSG(now > prevStep, "event loop stepped back in time");

      // Rotating priority: same scan order as the rescan starting at now % n.
      const std::uint32_t start =
          static_cast<std::uint32_t>(static_cast<std::size_t>(now) % n);
      if (cand.size() * 8 >= n) {
        // Dense step: stamp the candidates and collect them by one pass in
        // rotation order — cheaper than sorting when most cells are awake.
        for (std::uint32_t id : cand) candAt[id] = now;
        ordered.clear();
        for (std::size_t k = 0; k < n; ++k) {
          const auto id = static_cast<std::uint32_t>(
              (start + k) % static_cast<std::uint32_t>(n));
          if (candAt[id] == now) ordered.push_back(id);
        }
        cand.swap(ordered);
      } else {
        std::sort(cand.begin(), cand.end(),
                  [start, n](std::uint32_t a, std::uint32_t b) {
                    const std::uint32_t ra =
                        a >= start ? a - start
                                   : a + static_cast<std::uint32_t>(n) - start;
                    const std::uint32_t rb =
                        b >= start ? b - start
                                   : b + static_cast<std::uint32_t>(n) - start;
                    return ra < rb;
                  });
      }
      // Phase A: enabling + FU grants against start-of-cycle state.
      toFire.clear();
      for (std::uint32_t id : cand) {
        if (!enabled(id)) continue;
        const dfg::FuClass fc = eg.cell(id).fu;
        if (const std::int64_t until = inj.outageUntil(fc, now); until > now) {
          // Denied by a transient outage: retry at its end (chained through
          // the wheel horizon when the outage outlasts it).
          probe.denied(id, now, until);
          wake(id, std::min(until, now + hzn));
          continue;
        }
        if (fu.tryGrant(fc, now)) {
          toFire.push_back(id);
        } else {
          const std::int64_t freeAt = fu.nextFree(fc);
          probe.denied(id, now, freeAt);
          wake(id, freeAt);  // retry when a unit frees
        }
      }
      // Phase B: apply.
      for (std::uint32_t id : toFire) fire(id);

      if (!toFire.empty()) lastFire_ = now;
      afterStep(toFire);
      prevStep = now;  // after the hook, which may jump the clock
      maybeCheckpoint();
      if (stop.outputsComplete()) {
        result.completed = true;
        ++now;
        break;
      }
    }
    rq = nullptr;
    finish();
  }

  void runEventDriven() {
    runEventLoop([](const std::vector<std::uint32_t>&) {});
  }
};

/// Trace naming/grouping for a run of `lowered`: graph names and FU classes,
/// plus the Placement's PE assignment when the run has one.  Shared with the
/// Reference engine so every scheduler labels cells identically.
inline obs::TraceMeta traceMetaFor(const dfg::Graph& lowered,
                                   const RunOptions& opts) {
  obs::TraceMeta m = obs::TraceMeta::of(lowered);
  if (opts.placement)
    m.peOf.assign(opts.placement->peOf.begin(), opts.placement->peOf.end());
  return m;
}

/// The original pointer-walking stepper over dfg::Graph, kept verbatim as
/// the verification oracle (machine/engine_reference.cpp); reached through
/// simulate() with SchedulerKind::Reference.
MachineResult simulateReference(const dfg::Graph& lowered,
                                const MachineConfig& cfg,
                                const run::StreamMap& inputs,
                                const RunOptions& opts);

/// SchedulerKind::Compiled driver (machine/engine_compiled.cpp): computes
/// the sched::SteadySchedule IR, runs the event loop with a steady-state
/// detector hooked in, and fast-forwards whole periods when it can.  Fills
/// e.result (including result.compiled) exactly like runEventDriven fills
/// the shared fields.
void runCompiled(SingleEngine& e);

}  // namespace valpipe::machine::detail

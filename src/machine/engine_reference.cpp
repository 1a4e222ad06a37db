// The original synchronous stepper over dfg::Graph, kept verbatim.
//
// This is the pre-ExecutableGraph engine: it rescans every cell each
// instruction time and re-derives destination lists through dfg::Wiring.  It
// serves two purposes: (a) verification oracle — the equivalence tests assert
// the event-driven scheduler reproduces its MachineResult bit-for-bit; and
// (b) bench baseline — bench_engine_scaling reports the flattened engines'
// speedup against it.  Do not optimize this file; its value is that it stays
// the same.  (Two sanctioned additions: the fault-injection/guard/watchdog
// hooks — the resilience layer must cover every scheduler, the oracle
// included, and each hook is a null test when the run carries no plan and
// no guards — and the composite-FIFO firing rule, which the oracle must
// implement so fused graphs stay cross-checkable; it mirrors
// SingleEngine::fireFifo over exec::FifoState and is inert on expanded
// graphs.)
#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>

#include "exec/fifo.hpp"
#include "guard/diagnosis.hpp"
#include "machine/engine.hpp"
#include "machine/engine_single.hpp"
#include "recover/snapshot.hpp"
#include "support/check.hpp"

namespace valpipe::machine {

using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::Op;
using dfg::Wiring;

namespace {

/// One operand slot at a consumer port: holds at most one result packet, per
/// the static architecture's "at most one instance of each instruction is
/// active" discipline.
struct Slot {
  bool full = false;
  Value v{};
  std::int64_t readyAt = 0;  ///< when the packet becomes usable (routing)
  std::int64_t freedAt = 0;  ///< when the producer sees the acknowledge
};

struct CellState {
  std::vector<Slot> ports;
  Slot gate;
  std::int64_t emitted = 0;
  std::int64_t busyUntil = 0;  ///< cell cannot refire before this time
};

struct ReferenceEngine {
  const Graph& g;
  const MachineConfig& cfg;
  const Wiring wiring;
  const run::StreamMap& inputs;
  const RunOptions& opts;

  std::vector<CellState> state;
  /// Composite-FIFO ring state (Fifo nodes of depth >= 2 only); mutable
  /// because the const phase-A enabled() caches its accept/emit decision
  /// there, exactly as the flattened engine does in its fifoDyn array.
  mutable std::vector<exec::FifoState> fifo;
  std::array<std::vector<std::int64_t>, 4> fuFreeAt;  ///< per class unit pool
  MachineResult result;
  std::int64_t now = 0;
  /// Observability hooks (inert unless the run carries sinks); recording a
  /// schedule the flattened engines must reproduce is part of this file's
  /// oracle duty, and every call is a null test when off.
  obs::LaneProbe probe;
  /// Fault injector and invariant guards, same zero-cost contract as probe.
  fault::Injector inj;
  guard::LaneGuard grd;
  /// Flattened view used only to name arcs for guards and stall diagnosis
  /// (cell i of the flattening is node i of `g`); built lazily.
  std::optional<exec::ExecutableGraph> egv;
  std::optional<guard::State> gst;
  /// Checkpoint / restore / deadline plumbing (mirrors SingleEngine's).
  std::int64_t lastFire_ = -1;
  std::int64_t nextCkpt_ = std::numeric_limits<std::int64_t>::max();
  std::chrono::steady_clock::time_point ddlAt_{};
  std::uint32_t ddlTick_ = 0;
  bool restored_ = false;

  ReferenceEngine(const Graph& graph, const MachineConfig& config,
                  const run::StreamMap& in, const RunOptions& o)
      : g(graph), cfg(config), wiring(graph), inputs(in), opts(o) {
    inj = fault::Injector(opts.faults);
    fifo.resize(g.size());
    for (NodeId id : g.ids()) {
      const Node& n = g.node(id);
      if (n.op == Op::Fifo && n.fifoDepth >= 2) {
        VALPIPE_CHECK_MSG(n.inputs.size() == 1 && !n.gate,
                          "composite FIFO cell must have one ungated operand");
        fifo[id.index].init(n.fifoDepth);
      }
    }
    if (opts.guards) {
      egv.emplace(g);
      gst.emplace(*egv);
      grd = guard::LaneGuard(&*gst, &*egv);
    }
    state.resize(g.size());
    result.firings.assign(g.size(), 0);
    for (NodeId id : g.ids()) {
      const Node& n = g.node(id);
      state[id.index].ports.resize(n.inputs.size());
      // Load-time tokens (counter-loop bootstraps): present at t = 0.
      for (std::size_t p = 0; p < n.inputs.size(); ++p)
        if (n.inputs[p].initial) {
          Slot& s = state[id.index].ports[p];
          s.full = true;
          s.v = *n.inputs[p].initial;
        }
      if (n.gate && n.gate->initial) {
        state[id.index].gate.full = true;
        state[id.index].gate.v = *n.gate->initial;
      }
    }
    for (int c = 0; c < 4; ++c) {
      const int units = cfg.fuUnits[c];
      fuFreeAt[c].assign(static_cast<std::size_t>(std::max(units, 0)), 0);
    }
    result.amFinal = opts.amInitial;
    // Fetched regions must exist even when nothing is pre-loaded (stores
    // fill them during the run).
    for (NodeId id : g.ids())
      if (g.node(id).op == Op::AmFetch) result.amFinal[g.node(id).streamName];
    if (opts.placement) {
      VALPIPE_CHECK_MSG(opts.placement->peOf.size() == g.size(),
                        "placement does not match the graph");
      result.pePackets.assign(static_cast<std::size_t>(opts.placement->peCount),
                              0);
    }
    if (opts.checkpoints && opts.checkpointEvery > 0)
      nextCkpt_ = (opts.restoreFrom ? opts.restoreFrom->now : 0) +
                  opts.checkpointEvery;
    if (opts.deadlineMicros > 0)
      ddlAt_ = std::chrono::steady_clock::now() +
               std::chrono::microseconds(opts.deadlineMicros);
  }

  std::int64_t sourceLimit(const Node& n) const {
    std::int64_t perWave = n.tokensPerWave;
    if (n.op == Op::Input) {
      auto it = inputs.find(n.streamName);
      VALPIPE_CHECK_MSG(it != inputs.end(),
                        "missing input stream '" + n.streamName + "'");
      VALPIPE_CHECK_MSG(
          static_cast<std::int64_t>(it->second.size()) == perWave,
          "input '" + n.streamName + "' has wrong length");
    }
    if (n.op == Op::AmFetch) {
      // Reads the region sequentially as stores fill it: the limit is
      // whatever is available now, capped at one region read per wave.
      auto it = result.amFinal.find(n.streamName);
      VALPIPE_CHECK_MSG(it != result.amFinal.end(),
                        "missing array-memory contents '" + n.streamName + "'");
      return std::min<std::int64_t>(
          perWave * opts.waves, static_cast<std::int64_t>(it->second.size()));
    }
    return perWave * opts.waves;
  }

  Value sourceValue(const Node& n, std::int64_t k) const {
    const std::int64_t j = k % n.tokensPerWave;
    switch (n.op) {
      case Op::Input: return inputs.at(n.streamName)[static_cast<std::size_t>(j)];
      case Op::BoolSeq:
        return Value(static_cast<bool>(n.pattern.bits[static_cast<std::size_t>(j)]));
      case Op::IndexSeq:
        return Value(n.seqLo +
                     (j / n.seqRepeat) % (n.seqHi - n.seqLo + 1));
      case Op::AmFetch:
        return result.amFinal.at(n.streamName)[static_cast<std::size_t>(k)];
      default: VALPIPE_UNREACHABLE("not a source");
    }
  }

  bool slotReady(const Slot& s) const { return s.full && s.readyAt <= now; }
  bool slotFree(const Slot& s) const { return !s.full && s.freedAt <= now; }

  bool portReady(NodeId id, int port) const {
    const Node& n = g.node(id);
    if (port == dfg::kGatePort)
      return n.gate->isLiteral() || slotReady(state[id.index].gate);
    return n.inputs[port].isLiteral() || slotReady(state[id.index].ports[port]);
  }

  Value portValue(NodeId id, int port) const {
    const Node& n = g.node(id);
    if (port == dfg::kGatePort)
      return n.gate->isLiteral() ? n.gate->literal : state[id.index].gate.v;
    return n.inputs[port].isLiteral() ? n.inputs[port].literal
                                      : state[id.index].ports[port].v;
  }

  /// Destination slots this firing would deliver to must all be free.
  bool destsFree(NodeId id, std::optional<bool> gateVal) const {
    for (const dfg::DestRef& d : wiring.deliveredDests(id, gateVal)) {
      const Slot& s = d.port == dfg::kGatePort ? state[d.consumer.index].gate
                                               : state[d.consumer.index].ports[d.port];
      if (!slotFree(s)) return false;
    }
    return true;
  }

  /// True for a fused FIFO chain kept as one ring-buffer cell; depth-1
  /// FIFOs fall through to the generic identity path.
  static bool isComposite(const Node& n) {
    return n.op == Op::Fifo && n.fifoDepth >= 2;
  }

  exec::FifoTiming fifoTiming() const {
    return exec::FifoTiming::of(
        cfg.execLatency[static_cast<std::size_t>(dfg::fuClass(Op::Fifo))],
        cfg.routeDelay, cfg.ackDelay);
  }

  /// Enabled test (phase A, reads only start-of-cycle state).
  bool enabled(NodeId id) const {
    const Node& n = g.node(id);
    const CellState& cs = state[id.index];
    if (cs.busyUntil > now) return false;

    if (isComposite(n)) {
      // Phase-A decision caching, exactly as SingleEngine::enabled: phase B
      // must act on the decision made against start-of-cycle state, or an
      // emit that frees this cell's input could enable an accept in the
      // same instruction time (impossible for the expanded chain).
      exec::FifoState& f = fifo[id.index];
      const exec::FifoTiming t = fifoTiming();
      f.doEmit = f.canEmit(t, now) && destsFree(id, std::nullopt);
      f.doAccept = portReady(id, 0) && f.canAccept(t, now);
      f.decidedAt = now;
      return f.doEmit || f.doAccept;
    }
    if (dfg::isSource(n.op)) {
      if (cs.emitted >= sourceLimit(n)) return false;
      return destsFree(id, std::nullopt);
    }
    std::optional<bool> gateVal;
    if (n.gate) {
      if (!portReady(id, dfg::kGatePort)) return false;
      gateVal = portValue(id, dfg::kGatePort).asBoolean();
    }
    if (n.op == Op::Merge) {
      if (!portReady(id, 0)) return false;
      const bool sel = portValue(id, 0).asBoolean();
      if (!portReady(id, sel ? 1 : 2)) return false;
    } else {
      for (int p = 0; p < static_cast<int>(n.inputs.size()); ++p)
        if (!portReady(id, p)) return false;
    }
    if (!dfg::producesResult(n.op)) return true;
    return destsFree(id, gateVal);
  }

  /// Flat operand-slot index of (id, port) in the lazily built flattening;
  /// only meaningful while guards are active (grd is inert otherwise).
  std::uint32_t guardSlot(NodeId id, int port) const {
    return egv ? egv->slotOf(egv->cell(id.index), port) : 0;
  }

  void consume(NodeId id, int port) {
    const Node& n = g.node(id);
    Slot& s = port == dfg::kGatePort ? state[id.index].gate
                                     : state[id.index].ports[port];
    const dfg::PortSrc& src =
        port == dfg::kGatePort ? *n.gate : n.inputs[port];
    if (src.isLiteral()) return;
    grd.onConsume(id.index, guardSlot(id, port), s.full, now);
    s.full = false;
    ++result.packets.ackPackets;
    if (inj.dropAck()) {
      // The acknowledge is lost: the producer never sees the slot freed.
      s.freedAt = fault::kLostPacket;
      return;
    }
    s.freedAt = now + cfg.ackDelay;
    probe.ack(src.producer.index, id.index, now, s.freedAt);
    grd.onAck(src.producer.index, guardSlot(id, port), now);
    // Acks are instantaneous freedAt stamps here, so a duplicated ack has
    // no physical effect — but the guards still see (and flag) it.
    if (inj.dupAck()) grd.onAck(src.producer.index, guardSlot(id, port), now);
  }

  /// Delivers a produced result into every destination slot.  Shared by the
  /// generic fire() and the composite-FIFO emit path so the two stay
  /// byte-identical in their packet accounting.
  void deliver(NodeId id, const Node& n, const Value& out,
               std::optional<bool> gateVal) {
    if (opts.placement)
      ++result.pePackets[static_cast<std::size_t>(opts.placement->of(id))];
    const std::int64_t arrive =
        now + cfg.latencyOf(n.op) + cfg.routeDelay + inj.execJitter();
    for (const dfg::DestRef& d : wiring.deliveredDests(id, gateVal)) {
      Slot& s = d.port == dfg::kGatePort ? state[d.consumer.index].gate
                                         : state[d.consumer.index].ports[d.port];
      // Packets between cells in different PEs traverse the distribution
      // network (Fig. 1) and pay the extra hop.
      std::int64_t at = arrive;
      if (opts.placement &&
          opts.placement->of(id) != opts.placement->of(d.consumer)) {
        at += cfg.interPeDelay;
        ++result.packets.networkResultPackets;
      }
      at += inj.deliveryDelay();
      ++result.packets.resultPackets;
      const std::uint32_t gslot = guardSlot(d.consumer, d.port);
      grd.onSend(id.index, gslot, now);
      // A dropped result still occupies the slot (the producer must stay
      // blocked) but never becomes ready; see SingleEngine::deliver.
      if (inj.dropResult()) at = fault::kLostPacket;
      const int copies = inj.dupResult() ? 2 : 1;
      for (int k = 0; k < copies; ++k) {
        grd.onDeliver(d.consumer.index, gslot, s.full, at);
        VALPIPE_CHECK_MSG(!s.full,
                          "result packet delivered into occupied slot");
        s.full = true;
        s.v = out;
        s.readyAt = at;
      }
      probe.result(id.index, d.consumer.index, now, at);
    }
  }

  /// Phase B for a composite FIFO cell: emit from the ring (counted as the
  /// firing) then accept into it, per the cached phase-A decision.  Mirrors
  /// SingleEngine::fireFifo.
  void fireFifo(NodeId id, const Node& n) {
    exec::FifoState& f = fifo[id.index];
    VALPIPE_CHECK_MSG(f.decidedAt == now,
                      "composite FIFO fired without a phase-A decision");
    CellState& cs = state[id.index];
    cs.busyUntil = now + 1;
    const exec::FifoTiming t = fifoTiming();
    if (f.doEmit) {
      ++result.firings[id.index];
      ++result.totalFirings;
      ++result.packets
            .opPacketsByClass[static_cast<std::size_t>(dfg::fuClass(n.op))];
      probe.fire(id.index, now, cfg.latencyOf(n.op));
      const Value v = f.pop(now);
      deliver(id, n, v, std::nullopt);
    }
    if (f.doAccept) {
      const Value v = portValue(id, 0);
      f.push(v, t, now);
      consume(id, 0);
    }
    grd.onFifoFire(id.index, guardSlot(id, 0), f.accepted, f.emitted, f.depth,
                   now);
  }

  /// Phase B: applies the firing of `id` at time `now`.
  void fire(NodeId id) {
    const Node& n = g.node(id);
    if (isComposite(n)) return fireFifo(id, n);
    CellState& cs = state[id.index];
    ++result.firings[id.index];
    ++result.totalFirings;
    ++result.packets.opPacketsByClass[static_cast<std::size_t>(dfg::fuClass(n.op))];
    cs.busyUntil = now + 1;
    probe.fire(id.index, now, cfg.latencyOf(n.op));

    std::optional<Value> out;
    std::optional<bool> gateVal;

    if (dfg::isSource(n.op)) {
      out = sourceValue(n, cs.emitted);
      ++cs.emitted;
    } else {
      if (n.gate) {
        gateVal = portValue(id, dfg::kGatePort).asBoolean();
        consume(id, dfg::kGatePort);
      }
      auto in = [&](int p) { return portValue(id, p); };
      switch (n.op) {
        case Op::Id: out = in(0); break;
        // A depth-1 FIFO is a single identity stage; only depth >= 2 runs
        // through the composite ring-buffer path above.
        case Op::Fifo: out = in(0); break;
        case Op::Not: out = ops::logicalNot(in(0)); break;
        case Op::Neg: out = ops::neg(in(0)); break;
        case Op::Abs: out = ops::abs(in(0)); break;
        case Op::Add: out = ops::add(in(0), in(1)); break;
        case Op::Sub: out = ops::sub(in(0), in(1)); break;
        case Op::Mul: out = ops::mul(in(0), in(1)); break;
        case Op::Div: out = ops::div(in(0), in(1)); break;
        case Op::Min: out = ops::min(in(0), in(1)); break;
        case Op::Max: out = ops::max(in(0), in(1)); break;
        case Op::Mod: out = ops::mod(in(0), in(1)); break;
        case Op::Lt: out = ops::lt(in(0), in(1)); break;
        case Op::Le: out = ops::le(in(0), in(1)); break;
        case Op::Gt: out = ops::gt(in(0), in(1)); break;
        case Op::Ge: out = ops::ge(in(0), in(1)); break;
        case Op::Eq: out = ops::eq(in(0), in(1)); break;
        case Op::Ne: out = ops::ne(in(0), in(1)); break;
        case Op::And: out = ops::logicalAnd(in(0), in(1)); break;
        case Op::Or: out = ops::logicalOr(in(0), in(1)); break;
        case Op::Merge: {
          const bool sel = in(0).asBoolean();
          out = in(sel ? 1 : 2);
          consume(id, 0);
          consume(id, sel ? 1 : 2);
          break;
        }
        case Op::Output: {
          result.outputs[n.streamName].push_back(in(0));
          result.outputTimes[n.streamName].push_back(now);
          break;
        }
        case Op::Sink: break;
        case Op::AmStore: result.amFinal[n.streamName].push_back(in(0)); break;
        default: VALPIPE_UNREACHABLE("unhandled op in machine engine");
      }
      if (n.op != Op::Merge)
        for (int p = 0; p < static_cast<int>(n.inputs.size()); ++p)
          consume(id, p);
    }

    if (!out.has_value()) return;
    deliver(id, n, *out, gateVal);
  }

  /// Tries to reserve a function unit of the op's class (phase A grant).
  bool grantUnit(Op op) {
    const auto c = static_cast<std::size_t>(dfg::fuClass(op));
    if (cfg.fuUnits[c] == 0) {  // unlimited
      result.fuBusy[c] += static_cast<std::uint64_t>(cfg.execLatency[c]);
      return true;
    }
    for (std::int64_t& freeAt : fuFreeAt[c]) {
      if (freeAt <= now) {
        freeAt = now + cfg.execLatency[c];
        result.fuBusy[c] += static_cast<std::uint64_t>(cfg.execLatency[c]);
        return true;
      }
    }
    return false;
  }

  /// Earliest release time of the op's (finite) unit class.
  std::int64_t unitNextFree(Op op) const {
    const auto c = static_cast<std::size_t>(dfg::fuClass(op));
    return *std::min_element(fuFreeAt[c].begin(), fuFreeAt[c].end());
  }

  bool outputsComplete() const {
    if (opts.expectedOutputs.empty()) return false;
    for (const auto& [name, want] : opts.expectedOutputs) {
      auto it = result.outputs.find(name);
      const std::int64_t have =
          it == result.outputs.end()
              ? 0
              : static_cast<std::int64_t>(it->second.size());
      if (have < want) return false;
    }
    return true;
  }

  /// Flattens the pointer-walking state into the shared exec form and
  /// throws the diagnosed StallError (cold path).
  [[noreturn]] void throwStall(const char* why) {
    if (!egv) egv.emplace(g);
    std::vector<exec::Slot> flat(egv->slotCount());
    std::vector<exec::CellDyn> dyn(g.size());
    const auto put = [&](const Slot& s, std::uint32_t slot) {
      flat[slot].full = s.full;
      flat[slot].v = s.v;
      flat[slot].readyAt = s.readyAt;
      flat[slot].freedAt = s.freedAt;
    };
    for (NodeId id : g.ids()) {
      const exec::Cell& c = egv->cell(id.index);
      const CellState& cs = state[id.index];
      for (std::size_t p = 0; p < cs.ports.size(); ++p)
        put(cs.ports[p], egv->slotOf(c, static_cast<int>(p)));
      if (g.node(id).gate) put(cs.gate, egv->slotOf(c, dfg::kGatePort));
      dyn[id.index].emitted = cs.emitted;
      dyn[id.index].busyUntil = cs.busyUntil;
    }
    std::vector<guard::OutputProgress> progress;
    for (const auto& [name, want] : opts.expectedOutputs) {
      auto it = result.outputs.find(name);
      progress.push_back(
          {name, want,
           it == result.outputs.end()
               ? 0
               : static_cast<std::int64_t>(it->second.size())});
    }
    throw run::StallError(
        now, guard::diagnoseStall(why, &g, *egv, flat.data(), dyn.data(), now,
                                  progress, inj.counters));
  }

  /// Captures the pointer-walking state in the scheduler-portable snapshot
  /// form, flattening slots through the same slotOf mapping throwStall uses
  /// (so a snapshot restores identically into any engine).
  recover::Snapshot capture() {
    if (!egv) egv.emplace(g);
    recover::Snapshot s;
    s.cells = g.size();
    s.slotCount = egv->slotCount();
    s.origin = "Reference";
    s.now = now;
    s.lastFire = lastFire_;
    s.slots.resize(egv->slotCount());
    s.cellDyn.resize(g.size());
    for (NodeId id : g.ids()) {
      const Node& n = g.node(id);
      const exec::Cell& c = egv->cell(id.index);
      const CellState& cs = state[id.index];
      const auto put = [&](const Slot& sl, std::uint32_t slot) {
        s.slots[slot] = {sl.full, sl.v, sl.readyAt, sl.freedAt};
      };
      for (std::size_t p = 0; p < cs.ports.size(); ++p)
        put(cs.ports[p], egv->slotOf(c, static_cast<int>(p)));
      if (n.gate) put(cs.gate, egv->slotOf(c, dfg::kGatePort));
      s.cellDyn[id.index] = {cs.emitted, cs.busyUntil,
                             result.firings[id.index]};
      if (isComposite(n))
        s.fifos.push_back(detail::toFifoImage(id.index, fifo[id.index]));
    }
    s.packets = result.packets;
    s.totalFirings = result.totalFirings;
    s.fuBusy = result.fuBusy;
    s.fuFreeAt = fuFreeAt;
    if (opts.placement) s.pePackets = result.pePackets;
    s.outputs = result.outputs;
    s.outputTimes = result.outputTimes;
    s.amFinal = result.amFinal;
    if (gst) {
      s.hasGuards = true;
      s.guardSent = gst->sent;
      s.guardAcked = gst->acked;
      s.guardDelivered = gst->delivered;
      s.guardConsumed = gst->consumed;
    }
    if (inj.active()) s.rngLanes = {inj.rngState()};
    s.faultCounters = inj.counters;
    s.clean = detail::scanClean(s.slots);
    return s;
  }

  /// Inverse of capture() over a freshly constructed engine; run() then
  /// resumes from s.now + 1 (no wake set to reseed — the rescan examines
  /// everything anyway).
  void restore(const recover::Snapshot& s) {
    if (!egv) egv.emplace(g);
    VALPIPE_CHECK_MSG(s.cells == g.size() && s.slotCount == egv->slotCount() &&
                          s.slots.size() == s.slotCount &&
                          s.cellDyn.size() == s.cells,
                      "snapshot does not match the graph");
    VALPIPE_CHECK_MSG(!gst || s.hasGuards,
                      "cannot enable guards when restoring a snapshot "
                      "captured without them");
    for (NodeId id : g.ids()) {
      const Node& n = g.node(id);
      const exec::Cell& c = egv->cell(id.index);
      CellState& cs = state[id.index];
      const auto get = [&](Slot& sl, std::uint32_t slot) {
        const recover::SlotImage& img = s.slots[slot];
        sl = {img.full, img.v, img.readyAt, img.freedAt};
      };
      for (std::size_t p = 0; p < cs.ports.size(); ++p)
        get(cs.ports[p], egv->slotOf(c, static_cast<int>(p)));
      if (n.gate) get(cs.gate, egv->slotOf(c, dfg::kGatePort));
      const recover::CellImage& img = s.cellDyn[id.index];
      cs.emitted = img.emitted;
      cs.busyUntil = img.busyUntil;
      result.firings[id.index] = img.firings;
    }
    for (const recover::FifoImage& img : s.fifos) {
      VALPIPE_CHECK_MSG(
          img.cell < g.size() &&
              g.node(NodeId{img.cell}).fifoDepth == img.depth,
          "snapshot FIFO ring does not match the graph");
      fifo[img.cell] = detail::fifoStateOf(img);
    }
    result.packets = s.packets;
    result.totalFirings = s.totalFirings;
    result.fuBusy = s.fuBusy;
    for (int c = 0; c < 4; ++c) {
      VALPIPE_CHECK_MSG(
          s.fuFreeAt[static_cast<std::size_t>(c)].size() == fuFreeAt[c].size(),
          "snapshot FU pool does not match the configuration");
      fuFreeAt[c] = s.fuFreeAt[static_cast<std::size_t>(c)];
    }
    if (opts.placement) {
      VALPIPE_CHECK_MSG(s.pePackets.size() == result.pePackets.size(),
                        "snapshot PE counters do not match the placement");
      result.pePackets = s.pePackets;
    }
    result.outputs = s.outputs;
    result.outputTimes = s.outputTimes;
    result.amFinal = s.amFinal;
    if (gst && s.hasGuards) {
      VALPIPE_CHECK_MSG(s.guardSent.size() == gst->sent.size(),
                        "snapshot guard counters do not match the graph");
      gst->sent = s.guardSent;
      gst->acked = s.guardAcked;
      gst->delivered = s.guardDelivered;
      gst->consumed = s.guardConsumed;
    }
    if (inj.active() && !s.rngLanes.empty()) inj.setRngState(s.rngLanes[0]);
    inj.counters = s.faultCounters;
    now = s.now;
    lastFire_ = s.lastFire;
    restored_ = true;
  }

  void maybeCheckpoint() {
    if (now < nextCkpt_) return;
    opts.checkpoints->add(capture());
    nextCkpt_ = now + opts.checkpointEvery;
  }

  void checkDeadline() {
    if (opts.deadlineMicros <= 0 || (++ddlTick_ & 255u) != 0) return;
    if (std::chrono::steady_clock::now() >= ddlAt_)
      throw run::DeadlineError(now, opts.deadlineMicros);
  }

  void run() {
    const std::size_t n = g.size();
    std::vector<NodeId> toFire;
    toFire.reserve(n);
    // Quiescence: nothing fired for longer than any in-flight delay can
    // span — injected delays included; the caller's watchdog may lengthen
    // the window further.
    std::int64_t settle =
        2 + cfg.routeDelay + cfg.ackDelay +
        *std::max_element(cfg.execLatency.begin(), cfg.execLatency.end()) +
        inj.maxExtraDelay();
    // A composite FIFO can sit with tokens maturing inside its ring while
    // no cell fires; widen the window so that gap is not read as deadlock.
    int maxFifoDepth = 0;
    for (NodeId id : g.ids())
      if (g.node(id).op == Op::Fifo)
        maxFifoDepth = std::max(maxFifoDepth, g.node(id).fifoDepth);
    settle += exec::fifoSettleSlack(maxFifoDepth, fifoTiming());
    if (opts.watchdog > 0) settle = std::max(settle, opts.watchdog);
    const std::int64_t floorTime = inj.quiesceFloor();
    const std::int64_t cap = opts.maxInstructionTimes > 0
                                 ? std::min(opts.maxInstructionTimes,
                                            opts.maxCycles)
                                 : opts.maxCycles;
    std::int64_t idle = 0;
    std::int64_t first = 0;
    if (restored_) {
      // Resume at the next step with the idle counter the uninterrupted run
      // would carry there.
      first = now + 1;
      idle = now - lastFire_;
      if (outputsComplete()) {  // snapshot taken at the final boundary
        result.completed = true;
        now = first;
        result.faults = inj.counters;
        result.cycles = now;
        return;
      }
    }

    for (now = first; now < cap; ++now) {
      checkDeadline();
      // Phase A: enabling decisions against start-of-cycle state, with
      // rotating priority for fairness under FU contention.
      toFire.clear();
      const std::size_t start = static_cast<std::size_t>(now) % n;
      for (std::size_t k = 0; k < n; ++k) {
        const NodeId id{static_cast<std::uint32_t>((start + k) % n)};
        if (!enabled(id)) continue;
        if (const std::int64_t until =
                inj.outageUntil(dfg::fuClass(g.node(id).op), now);
            until > now) {
          probe.denied(id.index, now, until);
          continue;
        }
        if (!grantUnit(g.node(id).op)) {
          probe.denied(id.index, now, unitNextFree(g.node(id).op));
          continue;
        }
        toFire.push_back(id);
      }
      // Phase B: apply.
      for (NodeId id : toFire) fire(id);

      if (!toFire.empty()) lastFire_ = now;
      maybeCheckpoint();
      if (outputsComplete()) {
        result.completed = true;
        ++now;
        break;
      }
      idle = toFire.empty() ? idle + 1 : 0;
      if (idle > settle && now >= floorTime) {
        result.completed = opts.expectedOutputs.empty() || outputsComplete();
        if (!result.completed) {
          if (opts.watchdog > 0)
            throwStall("watchdog: no cell fired within the idle window");
          result.note = "deadlock: outputs incomplete";
        }
        break;
      }
    }
    if (!result.completed && opts.maxInstructionTimes > 0 && now >= cap &&
        !opts.expectedOutputs.empty())
      throwStall("instruction-time cap reached with outputs incomplete");
    if (now >= opts.maxCycles) result.note = "maxCycles exceeded";
    result.faults = inj.counters;
    result.cycles = now;
  }
};

}  // namespace

MachineResult detail::simulateReference(const dfg::Graph& lowered,
                                        const MachineConfig& cfg,
                                        const run::StreamMap& inputs,
                                        const RunOptions& opts) {
  ReferenceEngine engine(lowered, cfg, inputs, opts);
  if (opts.restoreFrom) engine.restore(*opts.restoreFrom);
  if (opts.trace) opts.trace->begin(detail::traceMetaFor(lowered, opts));
  if (opts.metrics) opts.metrics->begin(lowered.size());
  engine.probe = obs::LaneProbe(opts.trace, opts.metrics);
  engine.run();
  if (opts.metrics)
    opts.metrics->finishRun("Reference", engine.result.cycles,
                            engine.result.fuBusy);
  if (opts.trace) opts.trace->seal();
  return std::move(engine.result);
}

}  // namespace valpipe::machine

#include "sched/schedule.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace valpipe::sched {

const char* declineName(Decline d) {
  switch (d) {
    case Decline::None: return "accepted";
    case Decline::ArrayMemory: return "array-memory";
    case Decline::DataDependentControl: return "data-dependent-control";
  }
  return "?";
}

const char* valuePathName(ValuePath p) {
  return p == ValuePath::SteadyLoop ? "steady-loop" : "replay";
}

namespace {

SteadySchedule declined(Decline d, std::string detail) {
  SteadySchedule s;
  s.accepted = false;
  s.decline = d;
  s.detail = std::move(detail);
  return s;
}

std::string cellName(const exec::ExecutableGraph& eg, std::uint32_t c) {
  std::ostringstream os;
  os << "cell " << c << " (" << dfg::mnemonic(eg.cell(c).op);
  if (eg.cell(c).stream >= 0) os << " " << eg.streamName(eg.cell(c));
  os << ")";
  return os.str();
}

/// Calls f(port, name) for each control port of `cell`: its gate, and the
/// selector of a Merge.
template <class F>
void forControlPorts(const exec::Cell& cell, F&& f) {
  if (cell.hasGate) f(exec::kGatePort, "gate");
  if (cell.op == dfg::Op::Merge) f(0, "selector");
}

/// Why a graph with compile-time control still cannot use the straight-line
/// value loop ("" when it can).
std::string replayReason(const exec::ExecutableGraph& eg) {
  for (std::uint32_t c = 0; c < eg.size(); ++c) {
    const exec::Cell& cell = eg.cell(c);
    if (cell.hasGate || cell.alwaysEnd != cell.destEnd)
      return cellName(eg, c) + " routes results by a compile-time gate";
    if (cell.op == dfg::Op::Merge)
      return cellName(eg, c) + " merges by a compile-time selector";
    for (int p = 0; p < cell.numPorts; ++p)
      if (eg.operand(cell, p).hasInitial)
        return cellName(eg, c) +
               " carries a load-time token (feedback bootstrap)";
  }
  return "";
}

}  // namespace

SteadySchedule computeSteadySchedule(const exec::ExecutableGraph& eg) {
  const auto n = static_cast<std::uint32_t>(eg.size());

  for (std::uint32_t c = 0; c < n; ++c) {
    const dfg::Op op = eg.cell(c).op;
    if (op == dfg::Op::AmStore || op == dfg::Op::AmFetch)
      return declined(Decline::ArrayMemory,
                      cellName(eg, c) +
                          " has data-dependent array-memory availability");
  }

  // --- control sources: walk each control port's backward operand cone
  // (gate ports included); a cone that reaches an Input routes by the data.
  // A cell walked for an earlier port reached no Input, so the walks share
  // one visited set and cover the union of the cones once.
  std::vector<char> seen(n, 0);
  std::vector<std::uint32_t> work;
  std::vector<std::uint32_t> control;
  std::string dataControl;
  for (std::uint32_t c = 0; c < n && dataControl.empty(); ++c) {
    const exec::Cell& cell = eg.cell(c);
    forControlPorts(cell, [&](int port, const char* what) {
      control.push_back(eg.slotOf(cell, port));
      const exec::Operand& o = eg.operand(cell, port);
      if (!dataControl.empty() || o.isLiteral() || seen[o.producer]) return;
      seen[o.producer] = 1;
      work.assign(1, o.producer);
      while (!work.empty()) {
        const std::uint32_t p = work.back();
        work.pop_back();
        const exec::Cell& pc = eg.cell(p);
        if (pc.op == dfg::Op::Input) {
          dataControl = cellName(eg, c) + " " + what + " depends on " +
                        cellName(eg, p) + " (data-dependent control, §5)";
          return;
        }
        const int ports = pc.numPorts + (pc.hasGate ? 1 : 0);
        for (int q = 0; q < ports; ++q) {
          const exec::Operand& in =
              eg.operandAt(pc.firstPort + static_cast<std::uint32_t>(q));
          if (!in.isLiteral() && !seen[in.producer]) {
            seen[in.producer] = 1;
            work.push_back(in.producer);
          }
        }
      }
    });
  }
  if (!dataControl.empty())
    return declined(Decline::DataDependentControl, dataControl);

  SteadySchedule s;
  s.accepted = true;
  const auto replay = [&](std::string why) {
    SteadySchedule r;
    r.accepted = true;
    r.path = ValuePath::Replay;
    r.detail = std::move(why);
    r.controlSlots = std::move(control);
    return r;
  };
  if (std::string why = replayReason(eg); !why.empty())
    return replay(std::move(why));

  // --- topological order over operand arcs; a leftover cell is on a cycle.
  std::vector<std::uint32_t> indeg(n, 0);
  for (std::uint32_t c = 0; c < n; ++c) {
    const exec::Cell& cell = eg.cell(c);
    for (int p = 0; p < cell.numPorts; ++p)
      if (!eg.operand(cell, p).isLiteral()) ++indeg[c];
  }
  s.topo.reserve(n);
  for (std::uint32_t c = 0; c < n; ++c)
    if (indeg[c] == 0) s.topo.push_back(c);
  for (std::size_t i = 0; i < s.topo.size(); ++i) {
    const exec::Cell& cell = eg.cell(s.topo[i]);
    for (const exec::Dest& d : eg.alwaysDests(cell))
      if (--indeg[d.consumer] == 0) s.topo.push_back(d.consumer);
  }
  if (s.topo.size() != n) {
    std::uint32_t stuck = 0;
    for (std::uint32_t c = 0; c < n; ++c)
      if (indeg[c] != 0) { stuck = c; break; }
    return replay(cellName(eg, stuck) +
                  " sits on a feedback cycle (rate k/S, §7)");
  }

  // --- ASAP slots.  A producer's slot is the stage its result leaves from:
  // a composite depth-k FIFO contributes k stages, everything else one.
  s.slot.assign(n, 0);
  s.arcOffset.assign(eg.slotCount(), 0);
  for (std::uint32_t c : s.topo) {
    const exec::Cell& cell = eg.cell(c);
    std::int64_t ready = -1;  // -1 => source / all-literal cell
    bool first = true;
    bool balanced = true;
    for (int p = 0; p < cell.numPorts; ++p) {
      const exec::Operand& o = eg.operand(cell, p);
      if (o.isLiteral()) continue;
      const std::int64_t at = s.slot[o.producer];
      if (first) { ready = at; first = false; }
      else if (at != ready) balanced = false;
      ready = std::max(ready, at);
    }
    if (!balanced)
      return replay(cellName(eg, c) +
                    " reconverges operands at unequal depth (§8: insert "
                    "FIFOs to balance)");
    const std::int64_t cost =
        cell.op == dfg::Op::Fifo && cell.fifoDepth >= 2 ? cell.fifoDepth : 1;
    s.slot[c] = ready < 0 ? (dfg::isSource(cell.op) ? 0 : cost) : ready + cost;
    s.depthMax = std::max(s.depthMax, s.slot[c]);
    for (int p = 0; p < cell.numPorts; ++p) {
      const exec::Operand& o = eg.operand(cell, p);
      if (!o.isLiteral())
        s.arcOffset[eg.slotOf(cell, p)] = s.slot[c] - s.slot[o.producer];
    }
  }
  s.phase.assign(n, 0);
  for (std::uint32_t c = 0; c < n; ++c)
    s.phase[c] = static_cast<std::int32_t>(s.slot[c] % s.hyperPeriod);
  return s;
}

namespace {

/// The compile-time sources a control port's value is computed from:
/// sequence generators and load-time tokens in its backward operand cone.
std::string controlSources(const exec::ExecutableGraph& eg,
                           const exec::Operand& o) {
  if (o.isLiteral()) return "literal";
  std::set<std::uint32_t> seen{o.producer};
  std::vector<std::uint32_t> work{o.producer};
  std::vector<std::string> found;
  while (!work.empty()) {
    const std::uint32_t c = work.back();
    work.pop_back();
    const exec::Cell& cell = eg.cell(c);
    if (dfg::isSource(cell.op)) found.push_back(cellName(eg, c));
    const int ports = cell.numPorts + (cell.hasGate ? 1 : 0);
    bool token = false;
    for (int p = 0; p < ports; ++p) {
      const exec::Operand& in = eg.operandAt(cell.firstPort +
                                             static_cast<std::uint32_t>(p));
      token = token || in.hasInitial;
      if (!in.isLiteral() && seen.insert(in.producer).second)
        work.push_back(in.producer);
    }
    if (token) found.push_back("load-time token at " + cellName(eg, c));
  }
  if (found.empty()) return "literals";
  std::sort(found.begin(), found.end());
  std::string out;
  for (const std::string& f : found) out += (out.empty() ? "" : ", ") + f;
  return out;
}

}  // namespace

std::string SteadySchedule::explain(const exec::ExecutableGraph& eg) const {
  std::ostringstream os;
  if (!accepted) {
    os << "steady schedule: declined (" << declineName(decline) << ")\n"
       << "  " << detail << "\n"
       << "  the compiled scheduler falls back to event-driven execution\n";
    return os.str();
  }
  if (path == ValuePath::Replay) {
    os << "steady schedule: accepted, replay (all control is compile-time)\n"
       << "  " << detail << "\n"
       << "  skipped windows replay the recorded steady window; every "
          "control value is checked\n"
       << "  control ports (" << controlSlots.size() << "):\n";
    for (std::uint32_t c = 0; c < eg.size(); ++c) {
      const exec::Cell& cell = eg.cell(c);
      forControlPorts(cell, [&](int port, const char* what) {
        const exec::Operand& o = eg.operand(cell, port);
        os << "    " << cellName(eg, c) << " " << what << " <- "
           << (o.isLiteral() ? "literal " + o.literal.str()
                             : cellName(eg, o.producer))
           << "; sources: " << controlSources(eg, o) << "\n";
      });
    }
    return os.str();
  }
  os << "steady schedule: accepted, straight-line\n"
     << "  hyper-period: " << hyperPeriod
     << " instruction times (unit profile; 1 firing per cell per period)\n"
     << "  pipeline depth: " << depthMax << " stage"
     << (depthMax == 1 ? "" : "s") << "\n"
     << "  cell  slot  phase  op\n";
  for (std::uint32_t c = 0; c < eg.size(); ++c) {
    const exec::Cell& cell = eg.cell(c);
    os << "  " << c << "\t" << slot[c] << "\t" << phase[c] << "\t"
       << dfg::mnemonic(cell.op);
    if (cell.op == dfg::Op::Fifo && cell.fifoDepth >= 2)
      os << "[" << cell.fifoDepth << "]";
    if (cell.stream >= 0) os << " " << eg.streamName(cell);
    bool any = false;
    for (int p = 0; p < cell.numPorts; ++p) {
      const exec::Operand& o = eg.operand(cell, p);
      if (o.isLiteral()) continue;
      os << (any ? ", " : "   <- ") << o.producer << " (+"
         << arcOffset[eg.slotOf(cell, p)] << ")";
      any = true;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace valpipe::sched

// Event capture for the timed machine engines (the observability subsystem).
//
// The paper's central claim (§3, Theorems 1-2) is a *per-cell* property:
// in a fully pipelined graph every instruction cell fires once per two
// instruction times.  The engines' MachineResult exposes only final field
// values, so the claim could previously be asserted only through end-to-end
// output rates.  A TraceSink records the firing-level schedule itself —
// cell firings, result and acknowledge packet routings, function-unit
// denials — on the simulated instruction-time axis, and sorts it into one
// canonical stream when the run ends.
//
// Determinism contract: Fire / Result / Ack events are a pure function of
// the simulated schedule, which is bit-identical across every SchedulerKind,
// so their canonical stream is identical across Reference, EventDriven and
// Compiled (whose fast-forward is off while a sink is attached).  FuDenied
// events are per-*examination* diagnostics: EventDriven and Compiled
// re-examine a denied cell only when a unit frees, while the Reference
// stepper's rescan re-examines it every cycle and so records more of them.
//
// Cost contract: tracing off is a null-pointer test per firing hook (the
// LaneProbe fast path in obs/probe.hpp); no sink, no cost.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dfg/graph.hpp"
#include "support/value.hpp"

namespace valpipe::obs {

enum class EventKind : std::uint8_t {
  Fire,      ///< cell fired (cell = firing cell, aux = FU busy time)
  Result,    ///< result packet routed (cell = producer, other = consumer,
             ///< aux = arrival time after exec/route/inter-PE delays)
  Ack,       ///< acknowledge routed (cell = producer being freed,
             ///< other = consuming cell, aux = freedAt)
  FuDenied,  ///< enabled cell found no free unit (aux = earliest free)
};

/// One captured event on the simulated instruction-time axis.
struct Event {
  std::int64_t time = 0;  ///< instruction time the event happened at
  std::int64_t aux = 0;   ///< kind-specific payload (see EventKind)
  std::uint32_t cell = 0;
  std::uint32_t other = 0;
  EventKind kind = EventKind::Fire;
};

/// Canonical ordering and equality of events.
inline bool eventKeyLess(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.cell != b.cell) return a.cell < b.cell;
  if (a.other != b.other) return a.other < b.other;
  return a.aux < b.aux;
}
inline bool eventKeyEqual(const Event& a, const Event& b) {
  return a.time == b.time && a.kind == b.kind && a.cell == b.cell &&
         a.other == b.other && a.aux == b.aux;
}

/// Static naming/grouping info for a traced graph: used by the Chrome
/// exporter (one track per FU class, PE as an argument) and the metrics
/// JSON.
struct TraceMeta {
  std::vector<std::string> cellName;  ///< per cell, never empty
  std::vector<std::uint8_t> fuOf;     ///< per cell FuClass index
  std::vector<int> peOf;              ///< per cell PE, empty when unplaced

  /// Names + FU classes from the lowered graph; peOf starts empty — the
  /// engine fills it when the run has a Placement.
  static TraceMeta of(const dfg::Graph& lowered);
};

/// Printable name of a cell: its label, else stream name, else "op#id".
std::string cellDisplayName(const dfg::Graph& g, std::uint32_t cell);

/// Collects one run's trace.  An engine calls begin(), pushes events in
/// the order its schedule produces them, and seal() sorts them into the
/// canonical stream.  The sink may be reused across runs; begin() resets
/// it.
class TraceSink {
 public:
  void begin(TraceMeta meta);
  void push(const Event& e) { events_.push_back(e); }

  /// Stable-sorts the recorded events by the canonical event key.  Called
  /// by the engine at run end.
  void seal();

  bool sealed() const { return sealed_; }
  const std::vector<Event>& events() const { return events_; }
  const TraceMeta& meta() const { return meta_; }

  /// True when the two sealed traces describe the same schedule: equal
  /// canonical streams.
  static bool sameSchedule(const TraceSink& a, const TraceSink& b);

 private:
  std::vector<Event> events_;
  TraceMeta meta_;
  bool sealed_ = false;
};

}  // namespace valpipe::obs

// Run metrics of the timed machine engines (the observability subsystem).
//
// Where the trace (obs/trace.hpp) records the schedule event by event, the
// MetricsSink aggregates it online with O(1) work per firing and O(cells)
// memory: per-cell firing counts and inter-firing-gap histograms (the raw
// material of the §3 max-pipelining audit in obs/rate_report.hpp) and
// end-of-run function-unit occupancy.  Serialized to JSON via writeJson.
//
// A sink is written by the one thread running the engine; plain counters
// suffice, exactly like the engine's own firing arrays.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace valpipe::obs {

struct TraceMeta;

/// Inter-firing gaps are bucketed exactly for 1..kGapMax instruction times;
/// anything longer lands in the overflow bucket.  The paper's bound is 2, so
/// precision at small gaps is what the audit needs.
inline constexpr int kGapMax = 16;
inline constexpr int kGapBuckets = kGapMax + 2;  ///< [0] unused, [17] overflow

/// Per-cell firing statistics.  All counters are 64-bit: multi-million-
/// firing runs are routine and the sink must never wrap.
struct CellStats {
  std::uint64_t firings = 0;
  std::int64_t firstFire = -1;
  std::int64_t lastFire = -1;
  std::array<std::uint64_t, kGapBuckets> gapCount{};
};

class MetricsSink {
 public:
  /// Resets and sizes the sink; called by the engine before the run.
  void begin(std::size_t cells);

  // --- hot path (via obs::LaneProbe) ------------------------------------
  void onFire(std::uint32_t cell, std::int64_t t) {
    CellStats& cs = cells_[cell];
    if (cs.firings == 0) {
      cs.firstFire = t;
    } else {
      const std::int64_t gap = t - cs.lastFire;
      ++cs.gapCount[static_cast<std::size_t>(
          gap > kGapMax ? kGapMax + 1 : gap)];
    }
    cs.lastFire = t;
    ++cs.firings;
  }

  // --- end of run -------------------------------------------------------
  /// Stamped by the engine when the run finishes.
  void finishRun(const char* scheduler, std::int64_t cycles,
                 const std::array<std::uint64_t, 4>& fuBusy);

  // --- queries ----------------------------------------------------------
  std::size_t cellCount() const { return cells_.size(); }
  const CellStats& cell(std::uint32_t c) const { return cells_[c]; }
  const std::string& scheduler() const { return scheduler_; }
  std::int64_t cycles() const { return cycles_; }
  const std::array<std::uint64_t, 4>& fuBusy() const { return fuBusy_; }

  /// Steady-state firing period of a cell: the median inter-firing gap
  /// (transient fill/drain gaps are outliers by construction).  Returns -1
  /// when the cell fired fewer than `minFirings` times, and kGapMax + 1
  /// ("period > kGapMax") when the median lands in the overflow bucket.
  std::int64_t steadyPeriod(std::uint32_t cell,
                            std::uint64_t minFirings = 8) const;

  /// Average busy units of an FU class per instruction time (occupancy;
  /// may exceed 1 when the class has several units).  0 when no cycles.
  double fuBusyPerCycle(int fuClass) const;

  /// Serializes everything to JSON; `meta` (optional) adds cell names.
  void writeJson(std::ostream& os, const TraceMeta* meta = nullptr) const;

 private:
  std::vector<CellStats> cells_;
  std::string scheduler_;
  std::int64_t cycles_ = 0;
  std::array<std::uint64_t, 4> fuBusy_{};
};

}  // namespace valpipe::obs

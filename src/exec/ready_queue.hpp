// Per-instruction-time ready queue of the event-driven scheduler.
//
// The timed simulator re-examines a cell only when something that can change
// its enabling happens: a result packet arrives, an acknowledge frees a
// destination slot, its own firing completes, a function unit of its class
// frees, or an array-memory store extends a region it fetches.  Each such
// event wakes the cell at a specific instruction time; the queue yields, per
// time step, the deduplicated set of cells to examine.
//
// Every wake lies at most `horizon` instruction times ahead of the time being
// processed (the longest of ack delay, execution latency + routing + the
// inter-PE hop, or a unit-pool release), so the queue is a circular time
// wheel: a power-of-two ring of per-time buckets with O(1) push and pop and
// no comparisons — the property that makes the event-driven engine cheaper
// per event than a full rescan is cheap per cell.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/check.hpp"

namespace valpipe::exec {

class ReadyQueue {
 public:
  /// `horizon` bounds how far ahead of the currently processed time a wake
  /// may land; wakes beyond it would alias an earlier bucket.
  ReadyQueue(std::size_t cells, std::int64_t horizon)
      : lastWake_(cells, -1), seenAt_(cells, -1) {
    std::size_t ring = 2;
    while (ring < static_cast<std::size_t>(horizon) + 2) ring <<= 1;
    buckets_.resize(ring);
    mask_ = static_cast<std::int64_t>(ring) - 1;
  }

  /// Schedules `cell` for examination at instruction time `at`.
  void wake(std::uint32_t cell, std::int64_t at) {
    if (lastWake_[cell] == at) return;  // common duplicate (ack + arrival)
    lastWake_[cell] = at;
    // Keep the cursor a true lower bound.  An empty wheel's cursor may be
    // arbitrarily stale (a fresh or cleared wheel that a restore or a
    // compiled-scheduler jump reseeds far from 0), so the first wake places
    // it; a wake can also land behind a cursor nextTime() already scanned
    // forward.  Scanning from the old cursor would miss (or alias) this
    // entry's bucket.  Every bucket between `at` and a scanned-ahead cursor
    // is empty, so snapping back is exact.
    if (count_ == 0 || at < next_) next_ = at;
    buckets_[static_cast<std::size_t>(at & mask_)].push_back(cell);
    ++count_;
  }

  bool empty() const { return count_ == 0; }

  /// Earliest scheduled instruction time.  Precondition: !empty().
  std::int64_t nextTime() {
    while (buckets_[static_cast<std::size_t>(next_ & mask_)].empty()) ++next_;
    return next_;
  }

  /// Forgets every scheduled wake and resets the cursor and dedupe stamps,
  /// returning the wheel to its just-constructed state, before the engine
  /// reseeds it from materialized state (a restore, or the compiled
  /// scheduler's bulk jump, whose pre-jump entries would otherwise alias
  /// post-jump buckets).
  void clear() {
    for (auto& b : buckets_) b.clear();
    count_ = 0;
    next_ = 0;
    std::fill(lastWake_.begin(), lastWake_.end(), -1);
    std::fill(seenAt_.begin(), seenAt_.end(), -1);
  }

  /// Pops every cell scheduled at nextTime() into `out`, deduplicated.
  /// Returns that time.  Precondition: !empty().
  std::int64_t pop(std::vector<std::uint32_t>& out) {
    const std::int64_t t = nextTime();
    auto& bucket = buckets_[static_cast<std::size_t>(t & mask_)];
    out.clear();
    for (const std::uint32_t c : bucket) {
      if (seenAt_[c] != t) {
        seenAt_[c] = t;
        out.push_back(c);
      }
    }
    count_ -= bucket.size();
    bucket.clear();  // keeps capacity for the next lap around the ring
    ++next_;
    return t;
  }

 private:
  std::vector<std::vector<std::uint32_t>> buckets_;  ///< ring, indexed t & mask_
  std::int64_t mask_ = 0;
  std::int64_t next_ = 0;   ///< lower bound on the earliest scheduled time
  std::size_t count_ = 0;   ///< entries currently in the wheel
  std::vector<std::int64_t> lastWake_;  ///< push-side dedupe
  std::vector<std::int64_t> seenAt_;    ///< pop-side dedupe
};

}  // namespace valpipe::exec

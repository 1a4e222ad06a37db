// Recording handle threaded through the engines' firing core.
//
// The probe is the only observability type the hot loops see.  It bundles
// the run's TraceSink (nullptr when tracing is off) and MetricsSink (nullptr
// when metrics are off); every hook degenerates to one or two null-pointer
// tests when no sink is attached, which is what keeps the no-sink fast path
// free.  A default-constructed probe is inert.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace valpipe::obs {

class LaneProbe {
 public:
  LaneProbe() = default;
  LaneProbe(TraceSink* trace, MetricsSink* metrics)
      : trace_(trace), metrics_(metrics) {}

  bool active() const { return trace_ != nullptr || metrics_ != nullptr; }

  /// Cell fired at t; its function unit stays busy for `execTime`.
  void fire(std::uint32_t cell, std::int64_t t, std::int64_t execTime) {
    if (metrics_) metrics_->onFire(cell, t);
    if (trace_) trace_->push({t, execTime, cell, 0, EventKind::Fire});
  }

  /// Result packet sent by `from` at t, arriving at `to` at `arrive`.
  void result(std::uint32_t from, std::uint32_t to, std::int64_t t,
              std::int64_t arrive) {
    if (trace_) trace_->push({t, arrive, from, to, EventKind::Result});
  }

  /// Acknowledge issued at t: `consumer` frees `producer` at `freedAt`.
  void ack(std::uint32_t producer, std::uint32_t consumer, std::int64_t t,
           std::int64_t freedAt) {
    if (trace_) trace_->push({t, freedAt, producer, consumer, EventKind::Ack});
  }

  /// Enabled cell examined at t found no free unit until `freeAt`.
  void denied(std::uint32_t cell, std::int64_t t, std::int64_t freeAt) {
    if (trace_) trace_->push({t, freeAt, cell, 0, EventKind::FuDenied});
  }

 private:
  TraceSink* trace_ = nullptr;
  MetricsSink* metrics_ = nullptr;
};

}  // namespace valpipe::obs

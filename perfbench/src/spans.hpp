// In-memory span recorder for the traced run.
//
// The benchmark wraps every public call it makes into a valpipe layer in a
// span named "<layer>.<call>" (val.frontend, core.balance, machine.simulate,
// wire.encode, ...) and its own loop structure in spans named "bench.*".
// Spans stay in memory until the run ends; a layer's self time is its span
// minus the part of that interval its child spans cover, and coverage is the
// share of the bench.* root spans' wall time that layer self time accounts
// for — a layer call the benchmark forgot to wrap shows up as a gap.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";     ///< static string: "<layer>.<call>" or "bench.*"
  std::int64_t startNs = 0;  ///< steady_clock, relative to the tracer's origin
  std::int64_t endNs = -1;   ///< -1 while open
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint32_t request = 0; ///< spans of one request share this id
  std::uint32_t thread = 0;  ///< recording thread (small dense number)
};

/// Span names the benchmark itself owns rather than a valpipe layer.
bool isBenchSpan(const Span& s);

class Tracer {
 public:
  /// Closes its span when it goes out of scope (no-op when tracing was off).
  class Scope {
   public:
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    friend class Tracer;
    Scope(Tracer* t, std::int32_t index) : tracer_(t), index_(index) {}
    Tracer* tracer_;
    std::int32_t index_;
  };

  Tracer();

  /// Recording switch; the traced run flips it per round so it can compare
  /// traced and untraced rounds of the same process.
  void setEnabled(bool on) { enabled_.store(on); }

  /// Opens a span under the calling thread's innermost open span.
  [[nodiscard]] Scope span(const char* name, std::uint32_t request = 0) {
    return spanIf(true, name, request);
  }
  /// span() when `on`, else a scope that records nothing — for callers that
  /// trace some operations of a traced run and not others.
  [[nodiscard]] Scope spanIf(bool on, const char* name,
                             std::uint32_t request = 0);

  std::vector<Span> spans() const;

  /// Chrome trace-event JSON of every recorded span.
  void writeChromeTrace(std::ostream& os) const;

 private:
  void close(std::int32_t index);
  std::int64_t nowNs() const;

  std::atomic<bool> enabled_{false};
  std::int64_t originNs_ = 0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to its own interval).
std::vector<std::int64_t> selfTimes(const std::vector<Span>& spans);

struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t selfNs = 0;
};

/// Per span name: call count and summed self time.
std::map<std::string, LayerTotals> totalsByName(const std::vector<Span>& spans);

/// Summed layer (non-bench) self time inside root spans named `root`, as a
/// share of those roots' summed duration; 0 when there are no such roots.
double coverage(const std::vector<Span>& spans, const std::string& root);

/// Coverage a single-threaded workload must reach ("layers sum within 5%").
inline constexpr double kMinCoverage = 0.95;

}  // namespace perfbench

// The three workloads and what they hand back to main().
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;  ///< scratch directory inside the checkout
};

/// Samples of the calibration kernel (calibrate.cpp) over a measured phase.
class HostSpeed {
 public:
  /// Kernel time on an uncontended 4-vCPU Xeon VM.
  static constexpr double kNominalSeconds = 1.0e-3;
  void sample();
  /// How much slower than nominal the host ran: median kernel time over
  /// kNominalSeconds (1.0 without samples).
  double factor() const;

 private:
  std::vector<double> samples_;
};

/// What one workload run measured.  Every operation in `ops` is attempted;
/// `problems` lists why any check failed (a failed check also fails the
/// operations it covers).  `metrics` holds the end-to-end metrics, or the
/// per-layer ones in a traced run, as measured; main() scales their
/// times by `host.factor()`.
struct Outcome {
  OpLog ops;
  std::vector<std::string> problems;
  Metrics metrics;
  HostSpeed host;
};

Outcome runFigures(const Args& args, Tracer& tr);
Outcome runCompile(const Args& args, Tracer& tr);
Outcome runServe(const Args& args, Tracer& tr);

// --- helpers the workloads share --------------------------------------------

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set of this process (getrusage), in MiB.
double peakRssMb();
/// Current virtual size of this process (/proc/self/status VmSize), in MiB.
double vmSizeMb();

/// Mean self time per call of each compile-path layer span (val.frontend,
/// core.*, exec.flatten, sched.schedule) into `out`, in ms.
void addCompileLayerMetrics(const std::vector<Span>& spans, Metrics& out);

struct ProgramCounts;
/// code_cells and buffer_stages, or in a traced run core.cells_built,
/// opt.cells_absorbed and sched.accepted_share.
void addCountMetrics(const ProgramCounts& c, bool traced, Metrics& out);

/// trace.coverage of the `root` spans into out.metrics.  A share below
/// kMinCoverage is a problem: some layer call ran outside any span.
void requireCoverage(const std::vector<Span>& spans, const char* root,
                     Outcome& out);

}  // namespace perfbench

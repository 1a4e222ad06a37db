// Statistics and bookkeeping shared by the three workloads: the percentile
// rule, the geometric mean, failure accounting, and the result line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples a percentile must leave strictly above it before it is reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Smallest sample count for which percentile(p) leaves kMinBeyond beyond.
std::size_t samplesNeeded(double p);

/// Nearest-rank p-th percentile (0 < p < 100) of `samples`, or nullopt when
/// fewer than `minBeyond` samples lie above its rank.
std::optional<double> percentile(std::vector<double> samples, double p,
                                 std::size_t minBeyond = kMinBeyond);

/// Percentile that must exist; throws std::runtime_error naming `what` when
/// the sample count is too small for it.
double requirePercentile(const std::vector<double>& samples, double p,
                         const std::string& what);

/// Median (p50 without the beyond rule), for per-program summaries.
double median(std::vector<double> samples);

/// `samples` with each finite sample replaced by the median of the finite
/// samples of its class, classOf[i]; infinite (failed) samples stay
/// infinite.  Repeats of the same deterministic work (one program on one
/// input, one compile) differ only by what the host adds, so a percentile of
/// the result lands on the work, not on the host's noise tail.  Throws
/// std::invalid_argument when the two vectors differ in size.
std::vector<double> atClassMedians(const std::vector<double>& samples,
                                   const std::vector<std::size_t>& classOf);

/// Geometric mean of non-negative values, 0 when any value is 0 (a program
/// that failed rates 0 and drags the mean down rather than dropping out);
/// throws std::invalid_argument on an empty input or a negative value.
double geomean(const std::vector<double>& xs);

/// Median over intervals of amount[i] / seconds[i].  Throughput reported
/// this way is the rate the system sustained most of the time: a burst of
/// host noise shorter than half the run moves it little.
double medianRate(const std::vector<double>& amounts,
                  const std::vector<double>& seconds);

/// Splits [0, total) into whole windows of `window` seconds and sums the
/// weights of the events (time, weight) falling into each.
std::vector<double> windowTotals(
    const std::vector<std::pair<double, double>>& events, double window,
    double total);

/// Tracing overhead of a traced run: over each operation kind k with samples
/// on both sides, the ratio of the median of traced[k] to the median of
/// untraced[k], combined by geometric mean.  1.0 when no kind has both.
double tracingOverhead(const std::vector<std::vector<double>>& traced,
                       const std::vector<std::vector<double>>& untraced);

/// The measured operations of one workload run.  An operation counts as
/// succeeded only once every check passes; a failed one keeps its place but
/// its latency reads as +infinity, so a failure can never make a run look
/// faster.
class OpLog {
 public:
  /// Records one finished operation; returns its index.
  std::size_t add(double seconds, bool ok);
  /// Fails an operation after the fact (a later output check disagreed).
  void fail(std::size_t index);
  /// An operation that failed before it could be timed (e.g. no program).
  void addFailed();

  std::size_t attempted() const { return seconds_.size(); }
  std::size_t failed() const;
  std::size_t succeeded() const { return attempted() - failed(); }
  bool ok(std::size_t index) const { return ok_[index]; }

  /// Per-operation latency in milliseconds, +inf for failed operations.
  std::vector<double> latenciesMs() const;

 private:
  std::vector<double> seconds_;
  std::vector<bool> ok_;
};

/// Geometric mean over programs of the median run of runs[p], in ms.  Failed
/// runs read +inf, so a wrong fast run can only raise it.
double geomeanMedianMs(const std::vector<OpLog>& runs);

/// Geometric mean over programs of elements[p] per second of the median run
/// of runs[p].  Failed runs read +inf, so a wrong fast run can only lower
/// it; a program whose median run failed rates 0, and so does the mean.
double geomeanRate(const std::vector<double>& elements,
                   const std::vector<OpLog>& runs);

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The benchmark's last stdout line: {"correct", "attempted", "failed",
/// "metrics"} with every value printed to full precision.
std::string resultLine(bool correct, std::size_t attempted, std::size_t failed,
                       const Metrics& metrics);

/// JSON string literal with the characters JSON requires escaped.
std::string jsonString(const std::string& s);

/// Text that reads back as exactly `v`; +-inf print as +-DBL_MAX and NaN
/// throws std::invalid_argument.
std::string jsonNumber(double v);

}  // namespace perfbench

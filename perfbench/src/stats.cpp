#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace perfbench {

namespace {

/// 1-based nearest rank of the p-th percentile among n samples.
std::size_t nearestRank(double p, std::size_t n) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1,
                                 n);
}

}  // namespace

std::size_t samplesNeeded(double p) {
  std::size_t n = 1;
  while (n - nearestRank(p, n) < kMinBeyond) ++n;
  return n;
}

std::optional<double> percentile(std::vector<double> samples, double p,
                                 std::size_t minBeyond) {
  if (samples.empty() || !(p > 0.0 && p < 100.0)) return std::nullopt;
  const std::size_t rank = nearestRank(p, samples.size());
  if (samples.size() - rank < minBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

double requirePercentile(const std::vector<double>& samples, double p,
                         const std::string& what) {
  const std::optional<double> v = percentile(samples, p);
  if (!v)
    throw std::runtime_error(what + ": " + std::to_string(samples.size()) +
                             " samples leave fewer than " +
                             std::to_string(kMinBeyond) + " beyond p" +
                             std::to_string(static_cast<int>(p)));
  return *v;
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<double> atClassMedians(const std::vector<double>& samples,
                                   const std::vector<std::size_t>& classOf) {
  if (samples.size() != classOf.size())
    throw std::invalid_argument("atClassMedians: samples and classes differ in size");
  std::map<std::size_t, std::vector<double>> finite;
  for (std::size_t i = 0; i < samples.size(); ++i)
    if (std::isfinite(samples[i])) finite[classOf[i]].push_back(samples[i]);
  std::map<std::size_t, double> mid;
  for (auto& [c, v] : finite) mid[c] = median(std::move(v));
  std::vector<double> out;
  out.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i)
    out.push_back(std::isfinite(samples[i]) ? mid.at(classOf[i]) : samples[i]);
  return out;
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) throw std::invalid_argument("geometric mean of no values");
  for (double x : xs)
    if (!(x >= 0.0))
      throw std::invalid_argument("geometric mean of a negative value");
  if (std::find(xs.begin(), xs.end(), 0.0) != xs.end()) return 0.0;
  double logSum = 0.0;
  for (double x : xs) logSum += std::log(x);
  return std::exp(logSum / static_cast<double>(xs.size()));
}

double geomeanMedianMs(const std::vector<OpLog>& runs) {
  std::vector<double> ms;
  for (const OpLog& r : runs) ms.push_back(median(r.latenciesMs()));
  return geomean(ms);
}

double geomeanRate(const std::vector<double>& elements,
                   const std::vector<OpLog>& runs) {
  if (elements.size() != runs.size())
    throw std::invalid_argument("geomeanRate: elements and runs differ in size");
  std::vector<double> rates;
  for (std::size_t p = 0; p < runs.size(); ++p)
    rates.push_back(elements[p] / (median(runs[p].latenciesMs()) / 1e3));
  return geomean(rates);
}

double medianRate(const std::vector<double>& amounts,
                  const std::vector<double>& seconds) {
  if (amounts.size() != seconds.size())
    throw std::invalid_argument("medianRate: amounts and seconds differ in size");
  std::vector<double> rates;
  for (std::size_t i = 0; i < amounts.size(); ++i)
    if (seconds[i] > 0.0) rates.push_back(amounts[i] / seconds[i]);
  return median(rates);
}

std::vector<double> windowTotals(
    const std::vector<std::pair<double, double>>& events, double window,
    double total) {
  const auto n = static_cast<std::size_t>(total / window);
  std::vector<double> sums(n, 0.0);
  for (const auto& [t, w] : events) {
    if (t < 0.0) continue;
    const auto i = static_cast<std::size_t>(t / window);
    if (i < n) sums[i] += w;
  }
  return sums;
}

double tracingOverhead(const std::vector<std::vector<double>>& traced,
                       const std::vector<std::vector<double>>& untraced) {
  std::vector<double> ratios;
  for (std::size_t k = 0; k < traced.size() && k < untraced.size(); ++k)
    if (!traced[k].empty() && !untraced[k].empty())
      ratios.push_back(median(traced[k]) / median(untraced[k]));
  return ratios.empty() ? 1.0 : geomean(ratios);
}

std::size_t OpLog::add(double seconds, bool ok) {
  seconds_.push_back(seconds);
  ok_.push_back(ok);
  return seconds_.size() - 1;
}

void OpLog::fail(std::size_t index) { ok_.at(index) = false; }

void OpLog::addFailed() { add(0.0, false); }

std::size_t OpLog::failed() const {
  return static_cast<std::size_t>(std::count(ok_.begin(), ok_.end(), false));
}

std::vector<double> OpLog::latenciesMs() const {
  std::vector<double> ms;
  ms.reserve(seconds_.size());
  for (std::size_t i = 0; i < seconds_.size(); ++i)
    ms.push_back(ok_[i] ? seconds_[i] * 1e3
                        : std::numeric_limits<double>::infinity());
  return ms;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (std::isnan(v)) throw std::invalid_argument("NaN metric value");
  // A failed operation's latency is +inf; JSON has no infinity.
  if (std::isinf(v)) v = std::copysign(std::numeric_limits<double>::max(), v);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string resultLine(bool correct, std::size_t attempted, std::size_t failed,
                       const Metrics& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) s += ", ";
    first = false;
    s += jsonString(name) + ": {\"value\": " + jsonNumber(m.value) +
         ", \"unit\": " + jsonString(m.unit) + "}";
  }
  return s + "}}";
}

}  // namespace perfbench

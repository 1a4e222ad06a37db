#include "obs/metrics.hpp"

#include <ostream>

#include "obs/trace.hpp"

namespace valpipe::obs {

void MetricsSink::begin(std::size_t cells) {
  cells_.assign(cells, CellStats{});
  scheduler_.clear();
  cycles_ = 0;
  fuBusy_.fill(0);
}

void MetricsSink::finishRun(const char* scheduler, std::int64_t cycles,
                            const std::array<std::uint64_t, 4>& fuBusy) {
  scheduler_ = scheduler;
  cycles_ = cycles;
  fuBusy_ = fuBusy;
}

std::int64_t MetricsSink::steadyPeriod(std::uint32_t cell,
                                       std::uint64_t minFirings) const {
  const CellStats& cs = cells_[cell];
  if (cs.firings < minFirings) return -1;
  std::uint64_t gaps = 0;
  for (std::uint64_t c : cs.gapCount) gaps += c;
  if (gaps == 0) return -1;
  // Lower median over the histogram: fill/drain transients are a bounded
  // number of outliers, so the median sits on the steady-state period.
  const std::uint64_t half = (gaps - 1) / 2;
  std::uint64_t seen = 0;
  for (int b = 0; b < kGapBuckets; ++b) {
    seen += cs.gapCount[static_cast<std::size_t>(b)];
    if (seen > half) return b;
  }
  return kGapMax + 1;
}

double MetricsSink::fuBusyPerCycle(int fuClass) const {
  if (cycles_ <= 0) return 0.0;
  return static_cast<double>(fuBusy_[static_cast<std::size_t>(fuClass)]) /
         static_cast<double>(cycles_);
}

namespace {

constexpr const char* kFuNames[4] = {"pe", "alu", "fpu", "am"};

void jsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      default: os << c;
    }
  }
  os << '"';
}

}  // namespace

void MetricsSink::writeJson(std::ostream& os, const TraceMeta* meta) const {
  os << "{\n  \"scheduler\": ";
  jsonString(os, scheduler_);
  os << ",\n  \"cycles\": " << cycles_ << ",\n  \"fu_busy_per_cycle\": {";
  for (int f = 0; f < 4; ++f) {
    if (f) os << ", ";
    os << '"' << kFuNames[f] << "\": " << fuBusyPerCycle(f);
  }
  os << "},\n  \"cells\": [\n";
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const CellStats& cs = cells_[c];
    os << "    {\"cell\": " << c;
    if (meta && c < meta->cellName.size()) {
      os << ", \"name\": ";
      jsonString(os, meta->cellName[c]);
    }
    os << ", \"firings\": " << cs.firings << ", \"first_fire\": " << cs.firstFire
       << ", \"last_fire\": " << cs.lastFire << ", \"steady_period\": "
       << steadyPeriod(static_cast<std::uint32_t>(c)) << ", \"gap_histogram\": [";
    for (int b = 0; b < kGapBuckets; ++b) {
      if (b) os << ", ";
      os << cs.gapCount[static_cast<std::size_t>(b)];
    }
    os << "]}" << (c + 1 < cells_.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

}  // namespace valpipe::obs

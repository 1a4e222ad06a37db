#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <utility>

#include "stats.hpp"

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int32_t> tOpen;

std::uint32_t threadNumber() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next++;
  return mine;
}

std::int64_t steadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool isBenchSpan(const Span& s) { return std::strncmp(s.name, "bench.", 6) == 0; }

Tracer::Tracer() : originNs_(steadyNs()) {}

std::int64_t Tracer::nowNs() const { return steadyNs() - originNs_; }

Tracer::Scope Tracer::spanIf(bool on, const char* name,
                             std::uint32_t request) {
  if (!on || !enabled_) return Scope(nullptr, -1);
  Span s;
  s.name = name;
  s.parent = tOpen.empty() ? -1 : tOpen.back();
  s.request = request;
  s.thread = threadNumber();
  std::int32_t index = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    index = static_cast<std::int32_t>(spans_.size());
    s.startNs = nowNs();
    spans_.push_back(s);
  }
  tOpen.push_back(index);
  return Scope(this, index);
}

void Tracer::close(std::int32_t index) {
  const std::int64_t end = nowNs();
  if (!tOpen.empty() && tOpen.back() == index) tOpen.pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(index)].endNs = end;
}

Tracer::Scope::~Scope() {
  if (tracer_) tracer_->close(index_);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

void Tracer::writeChromeTrace(std::ostream& os) const {
  const std::vector<Span> all = spans();
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    os << "  {\"name\": " << jsonString(s.name) << ", \"ph\": \"X\", \"ts\": "
       << jsonNumber(static_cast<double>(s.startNs) / 1e3) << ", \"dur\": "
       << jsonNumber(static_cast<double>(s.endNs - s.startNs) / 1e3)
       << ", \"pid\": 1, \"tid\": " << s.thread << ", \"args\": {\"id\": " << i
       << ", \"parent\": " << s.parent << ", \"request\": " << s.request
       << "}}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

std::vector<std::int64_t> selfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.startNs, s.endNs);

  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t runStart = 0, runEnd = -1;  // current merged interval
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, s.startNs);
      b = std::min(b, s.endNs);
      if (b <= a) continue;
      if (open && a <= runEnd) {
        runEnd = std::max(runEnd, b);
        continue;
      }
      if (open) covered += runEnd - runStart;
      runStart = a;
      runEnd = b;
      open = true;
    }
    if (open) covered += runEnd - runStart;
    self[i] = (s.endNs - s.startNs) - covered;
  }
  return self;
}

std::map<std::string, LayerTotals> totalsByName(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = selfTimes(spans);
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = out[spans[i].name];
    ++t.calls;
    t.selfNs += self[i];
  }
  return out;
}

double coverage(const std::vector<Span>& spans, const std::string& root) {
  const std::vector<std::int64_t> self = selfTimes(spans);
  // Root span each span descends from (spans are recorded parent-first, so
  // one forward pass resolves every chain).
  std::vector<std::int32_t> rootOf(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i)
    rootOf[i] = spans[i].parent < 0
                    ? static_cast<std::int32_t>(i)
                    : rootOf[static_cast<std::size_t>(spans[i].parent)];

  std::int64_t wall = 0, covered = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& r = spans[static_cast<std::size_t>(rootOf[i])];
    if (root != r.name) continue;
    if (spans[i].parent < 0) wall += spans[i].endNs - spans[i].startNs;
    else if (!isBenchSpan(spans[i])) covered += self[i];
  }
  return wall > 0 ? static_cast<double>(covered) / static_cast<double>(wall)
                  : 0.0;
}

}  // namespace perfbench

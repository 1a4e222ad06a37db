#include "obs/chrome_trace.hpp"

#include <cstdint>
#include <ostream>
#include <set>

#include "obs/trace.hpp"
#include "support/check.hpp"

namespace valpipe::obs {

namespace {

constexpr const char* kFuNames[4] = {"PE", "ALU", "FPU", "AM"};

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

void writeChromeTrace(std::ostream& os, const TraceSink& trace) {
  VALPIPE_CHECK_MSG(trace.sealed(), "writeChromeTrace needs a sealed trace");
  const TraceMeta& meta = trace.meta();
  auto fuOf = [&](std::uint32_t cell) -> std::uint32_t {
    return cell < meta.fuOf.size() ? meta.fuOf[cell] : 0;
  };

  os << "{\"traceEvents\":[\n";
  // Name the rows first: one process for the machine, one thread per FU
  // class that appears in the trace.
  std::set<std::uint32_t> tids;
  for (const Event& e : trace.events())
    if (e.kind == EventKind::Fire || e.kind == EventKind::FuDenied)
      tids.insert(fuOf(e.cell));
  os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"machine\"}}";
  for (std::uint32_t tid : tids)
    os << ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << kFuNames[tid & 3] << "\"}}";

  // Firings become duration slices over the FU busy time; denials become
  // instant marks.  Result/Ack routings stay in the canonical trace only —
  // as flow arrows they drown the view.
  for (const Event& e : trace.events()) {
    switch (e.kind) {
      case EventKind::Fire: {
        os << ",\n{\"ph\":\"X\",\"name\":";
        jsonString(os, e.cell < meta.cellName.size() ? meta.cellName[e.cell]
                                                     : std::to_string(e.cell));
        os << ",\"pid\":0,\"tid\":" << fuOf(e.cell) << ",\"ts\":" << e.time
           << ",\"dur\":" << (e.aux > 0 ? e.aux : 1)
           << ",\"args\":{\"cell\":" << e.cell;
        if (e.cell < meta.peOf.size()) os << ",\"pe\":" << meta.peOf[e.cell];
        os << "}}";
        break;
      }
      case EventKind::FuDenied:
        os << ",\n{\"ph\":\"i\",\"s\":\"t\",\"name\":\"FU denied\",\"pid\":0,"
              "\"tid\":"
           << fuOf(e.cell) << ",\"ts\":" << e.time << ",\"args\":{\"cell\":"
           << e.cell << ",\"free_at\":" << e.aux << "}}";
        break;
      case EventKind::Result:
      case EventKind::Ack:
        break;
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace valpipe::obs

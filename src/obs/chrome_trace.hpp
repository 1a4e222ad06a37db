// Chrome about:tracing export of a sealed trace.
//
// Open chrome://tracing (or https://ui.perfetto.dev) and load the JSON.  One
// process row for the machine, one thread row per function-unit class inside
// it; cell firings render as duration slices spanning the FU busy time, FU
// denials as instant marks.  Timestamps are simulated instruction times
// presented as microseconds.
#pragma once

#include <iosfwd>

namespace valpipe::obs {

class TraceSink;

/// Writes `trace` (which must be sealed) as Chrome trace-event JSON.
void writeChromeTrace(std::ostream& os, const TraceSink& trace);

}  // namespace valpipe::obs

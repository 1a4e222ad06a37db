// Shared harness for the experiment benches.
//
// Every bench binary reproduces one figure or quantitative claim of the
// paper: it prints a paper-vs-measured table (the experiment proper), then
// hands over to google-benchmark for wall-clock timings of the simulator /
// compiler machinery involved.  Binaries run with no arguments.
#pragma once

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <random>
#include <thread>
#include <vector>

#include "core/compiler.hpp"
#include "dfg/lower.hpp"
#include "dfg/stats.hpp"
#include "machine/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/rate_report.hpp"
#include "support/text.hpp"
#include "val/eval.hpp"

namespace valpipe::bench {

/// The paper's Example 2 source (first-order linear recurrence).
inline std::string example2Source(std::int64_t m) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function ex2(A, B: array[real] [1, m] returns array[real])
  for i : integer := 1; T : array[real] := [0: 0]
  do let P : real := A[i]*T[i-1] + B[i]
     in if i < m + 1 then iter T := T[i: P]; i := i + 1 enditer
        else T endif
     endlet
  endfor
endfun
)";
}

/// Deterministic pseudo-random input stream.
inline std::vector<Value> randomStream(std::int64_t n, unsigned seed,
                                       double lo = -1.0, double hi = 1.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<Value> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) out.push_back(Value(dist(rng)));
  return out;
}

/// Input streams for a compiled program, sized from its declared types.
inline run::StreamMap randomInputs(const core::CompiledProgram& prog,
                                       unsigned seed, double lo = -1.0,
                                       double hi = 1.0) {
  run::StreamMap in;
  unsigned k = 0;
  for (const auto& [name, range] : prog.inputs)
    in[name] =
        randomStream(prog.inputLengthPerWave(name), seed + 100 * k++, lo, hi);
  return in;
}

struct RateResult {
  double steadyRate = 0.0;
  std::int64_t cycles = 0;
  bool completed = false;
  machine::PacketCounters packets;
};

/// Runs a compiled program on the unit-profile machine and reports the
/// steady output rate.
inline RateResult measureRate(const core::CompiledProgram& prog,
                              const run::StreamMap& inputs, int waves = 1,
                              machine::MachineConfig cfg =
                                  machine::MachineConfig::unit()) {
  dfg::Graph lowered = dfg::isLowered(prog.graph)
                           ? prog.graph
                           : dfg::expandFifos(prog.graph);
  machine::RunOptions opts;
  opts.waves = waves;
  opts.expectedOutputs[prog.outputName] =
      prog.expectedOutputPerWave() * waves;
  const machine::MachineResult res = machine::simulate(lowered, cfg, inputs, opts);
  return {res.steadyRate(prog.outputName), res.cycles, res.completed,
          res.packets};
}

/// Scheduler kind as the string recorded in reports.
inline const char* schedulerName(machine::SchedulerKind k) {
  switch (k) {
    case machine::SchedulerKind::Reference: return "Reference";
    case machine::SchedulerKind::EventDriven: return "EventDriven";
    case machine::SchedulerKind::Compiled: return "Compiled";
  }
  return "?";
}

/// Compiler + flags this binary was built with, as one human-readable
/// string ("g++ 13.2.0, optimized, NDEBUG").  Stamped into every report so
/// wall-clock numbers carry their build provenance.
inline std::string buildOptions() {
  std::string s;
#if defined(__clang__)
  s = "clang++ " __clang_version__;
#elif defined(__GNUC__)
  s = "g++ " + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__) +
      "." + std::to_string(__GNUC_PATCHLEVEL__);
#else
  s = "unknown-compiler";
#endif
#if defined(__OPTIMIZE__)
  s += ", optimized";
#else
  s += ", unoptimized";
#endif
#if defined(NDEBUG)
  s += ", NDEBUG";
#else
  s += ", assertions";
#endif
  s += ", C++" + std::to_string((__cplusplus / 100) % 100);
  return s;
}

/// One JSON object built key by key (row of a BenchJson report).
struct JsonObj {
  std::ostringstream body;
  bool first = true;

  JsonObj& raw(const std::string& k, const std::string& v) {
    body << (first ? "" : ", ") << "\"" << k << "\": " << v;
    first = false;
    return *this;
  }
  JsonObj& add(const std::string& k, const std::string& v) {
    return raw(k, "\"" + v + "\"");
  }
  JsonObj& add(const std::string& k, const char* v) {
    return add(k, std::string(v));
  }
  JsonObj& add(const std::string& k, double v) {
    std::ostringstream ss;
    ss << v;
    return raw(k, ss.str());
  }
  JsonObj& add(const std::string& k, std::int64_t v) {
    return raw(k, std::to_string(v));
  }
  JsonObj& add(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  JsonObj& add(const std::string& k, int v) {
    return add(k, static_cast<std::int64_t>(v));
  }
  JsonObj& add(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  std::string str() const { return "{" + body.str() + "}"; }
};

/// Machine-readable bench report: BENCH_<name>.json with the bench name,
/// the host's hardware_concurrency, the thread count the bench actually
/// ran with, the scheduler kind, and the compile options stamped at top
/// level (so numbers from a 1-core container or an unoptimized build read
/// honestly), plus any extra top-level fields and an array of measurement
/// rows.
class BenchJson {
 public:
  /// `threadsUsed` is how many threads the measured runs actually use —
  /// distinct from hardware_concurrency, which is what the host offers.
  /// A speedup claim only means something when threads_used <=
  /// hardware_concurrency; readers (and CI) can now check.
  explicit BenchJson(const std::string& bench,
                     machine::SchedulerKind scheduler =
                         machine::SchedulerKind::EventDriven,
                     int threadsUsed = 1)
      : bench_(bench) {
    top_.add("bench", bench);
    top_.add("hardware_concurrency",
             static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    top_.add("threads_used", threadsUsed);
    top_.add("scheduler", schedulerName(scheduler));
    top_.add("build", buildOptions());
  }

  /// Extra top-level field (workload description, audit line, ...).
  template <class V>
  void meta(const std::string& key, const V& v) {
    top_.add(key, v);
  }

  void addRow(const JsonObj& row) { rows_.push_back(row.str()); }

  /// Writes BENCH_<name>.json into the working directory.
  void write() const {
    const std::string path = "BENCH_" + bench_ + ".json";
    std::ofstream os(path);
    os << "{" << top_.body.str() << ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i)
      os << "    " << rows_[i] << (i + 1 < rows_.size() ? ",\n" : "\n");
    os << "  ]\n}\n";
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  std::string bench_;
  JsonObj top_;
  std::vector<std::string> rows_;
};

/// Re-runs a lowered graph with a MetricsSink attached and audits the §3
/// max-pipelining claim cell by cell.  `periodBound` defaults to the paper's
/// 2 instruction times; pass the derived bound for deliberately
/// cycle-limited graphs (e.g. the Fig. 7 Todd scheme at rate k/S).
inline obs::RateReport auditRun(const dfg::Graph& lowered,
                                const run::StreamMap& inputs,
                                const machine::RunOptions& base,
                                std::int64_t periodBound = 2,
                                machine::MachineConfig cfg =
                                    machine::MachineConfig::unit()) {
  obs::MetricsSink metrics;
  machine::RunOptions opts = base;
  opts.metrics = &metrics;
  machine::simulate(lowered, cfg, inputs, opts);
  return obs::auditMaxPipelining(lowered, metrics, periodBound);
}

/// auditRun for a compiled program: lowers it and expects one wave of its
/// output stream.
inline obs::RateReport auditProgram(const core::CompiledProgram& prog,
                                    const run::StreamMap& inputs,
                                    std::int64_t periodBound = 2,
                                    int waves = 1) {
  const dfg::Graph lowered = dfg::isLowered(prog.graph)
                                 ? prog.graph
                                 : dfg::expandFifos(prog.graph);
  machine::RunOptions opts;
  opts.waves = waves;
  opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave() * waves;
  return auditRun(lowered, inputs, opts, periodBound);
}

/// Prints the audit verdict line plus its structural diagnosis (printf
/// flavor of RateReport::print, for the bench tables).
inline void printAudit(const obs::RateReport& report) {
  std::ostringstream ss;
  report.print(ss);
  std::printf("%s", ss.str().c_str());
}

/// Prints the experiment header in a consistent format.
inline void banner(const char* id, const char* what, const char* expectation) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, what);
  std::printf("paper expectation: %s\n", expectation);
  std::printf("==============================================================\n");
}

/// Runs google-benchmark with the binary's own argv (so `--benchmark_*`
/// flags still work) after the experiment tables have been printed.
inline int runTimings(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::printf("\n-- wall-clock timings of the machinery involved --\n");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace valpipe::bench

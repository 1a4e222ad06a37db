// Shared harness for the experiment benches.
//
// Every bench binary reproduces one figure or quantitative claim of the
// paper: it prints a paper-vs-measured table (the experiment proper), and
// the wall-clock benches add timings of the simulator, compiler or server
// machinery involved.  Binaries take no arguments.
//
// Every wall-clock number a bench prints comes from one timer,
// timeInterleaved: an untimed warm-up run of each variant, then kRounds
// rounds that each run every variant once, the variant that goes first
// rotating from round to round, so drift in the host's speed lands on every
// variant alike.  A variant whose warm-up is shorter than
// kSampleFloorSeconds repeats back to back inside each sample.  A bench
// reports each variant's median sample, and for a pair of variants the
// median, min and max of the per-round ratios; every gate reads the median
// ratio, and every gated bench exits 1 when a gate or an identity check
// fails.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
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

/// The paper's Example 1 source (boundary-guarded smoothing forall).
inline std::string example1Source(std::int64_t m) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function ex1(B, C: array[real] [0, m+1] returns array[real])
  forall i in [0, m+1]
    P : real := if (i = 0) | (i = m+1) then C[i]
                else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
  construct B[i] * (P * P)
  endall
endfun
)";
}

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

/// What timing faults must leave unchanged (DESIGN §9): they move packets
/// in time only, so outputs, firings and packet counters stay the same.
inline bool sameWork(const machine::MachineResult& a,
                     const machine::MachineResult& b) {
  return a.outputs == b.outputs && a.firings == b.firings &&
         a.totalFirings == b.totalFirings &&
         a.packets.opPacketsByClass == b.packets.opPacketsByClass &&
         a.packets.resultPackets == b.packets.resultPackets &&
         a.packets.ackPackets == b.packets.ackPackets &&
         a.packets.networkResultPackets == b.packets.networkResultPackets;
}

/// Bit-identity across everything a client of a run could observe: the
/// work above plus output times, cycles and completion.
inline bool identical(const machine::MachineResult& a,
                      const machine::MachineResult& b) {
  return sameWork(a, b) && a.outputTimes == b.outputTimes &&
         a.cycles == b.cycles && a.completed == b.completed;
}

/// Rounds of every interleaved timing, and the shortest sample: constants
/// shared by every bench, so no ledger row is timed differently.
inline constexpr int kRounds = 9;
inline constexpr double kSampleFloorSeconds = 0.020;

/// One variant of an interleaved timing.  `run` is the timed work; `setup`,
/// when set, runs before every run outside the timed span (a fresh server,
/// a fresh copy of a graph the run mutates).
struct Variant {
  std::function<void()> run;
  std::function<void()> setup;
};

/// Median, min and max of a set of samples.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline Spread spreadOf(std::vector<double> v) {
  Spread s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.min = v.front();
  s.max = v.back();
  s.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  return s;
}

/// What timeInterleaved measured.
struct Timing {
  std::vector<int> runsPerSample;  ///< per variant, fixed at warm-up
  /// samples[variant][round]: seconds per run in that round's sample.
  std::vector<std::vector<double>> samples;

  /// The variant's median seconds per run.
  double seconds(std::size_t v) const { return spreadOf(samples[v]).median; }

  /// Per-round ratios samples[num][r] / samples[den][r]: a ratio above 1
  /// means `num` ran slower in that round.
  Spread ratio(std::size_t num, std::size_t den) const {
    std::vector<double> r;
    for (std::size_t i = 0; i < samples[num].size(); ++i)
      r.push_back(samples[num][i] / samples[den][i]);
    return spreadOf(std::move(r));
  }
};

inline double steadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The interleaved timer (see the header comment).  `clock` reads seconds;
/// tests pass a fake one.
inline Timing timeInterleaved(
    const std::vector<Variant>& variants,
    const std::function<double()>& clock = steadySeconds) {
  auto timeRuns = [&](const Variant& v, int runs) {
    double total = 0.0;
    for (int i = 0; i < runs; ++i) {
      if (v.setup) v.setup();
      const double t0 = clock();
      v.run();
      total += clock() - t0;
    }
    return total / runs;
  };
  const std::size_t n = variants.size();
  Timing t;
  t.runsPerSample.assign(n, 1);
  t.samples.assign(n, {});
  for (std::size_t v = 0; v < n; ++v) {
    const double warm = timeRuns(variants[v], 1);
    if (warm > 0.0 && warm < kSampleFloorSeconds)
      t.runsPerSample[v] =
          static_cast<int>(std::ceil(kSampleFloorSeconds / warm));
  }
  for (int r = 0; r < kRounds; ++r)
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t v = (static_cast<std::size_t>(r) + k) % n;
      t.samples[v].push_back(timeRuns(variants[v], t.runsPerSample[v]));
    }
  return t;
}

/// A timer variant that simulates `lowered` on the unit profile with `opts`
/// and keeps the result in `out`; the previous result is released before the
/// clock starts.
inline Variant simulateVariant(const dfg::Graph& lowered,
                               const run::StreamMap& inputs,
                               machine::RunOptions opts,
                               machine::MachineResult& out) {
  return {[&lowered, &inputs, opts = std::move(opts), &out] {
            out = machine::simulate(lowered, machine::MachineConfig::unit(),
                                    inputs, opts);
          },
          [&out] { out = machine::MachineResult{}; }};
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

/// `git describe --always --dirty` of the source tree, captured when CMake
/// configured this build (bench/CMakeLists.txt); bench/ledger.sh
/// reconfigures before every run, so a ledger names the commit it measured.
inline const char* commitStamp() {
#ifdef VALPIPE_COMMIT
  return VALPIPE_COMMIT;
#else
  return "unknown";
#endif
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
  /// A ratio over the interleaved rounds: {"median", "min", "max", "rounds"}.
  JsonObj& add(const std::string& k, const Spread& s) {
    return raw(k, JsonObj()
                      .add("median", s.median)
                      .add("min", s.min)
                      .add("max", s.max)
                      .add("rounds", kRounds)
                      .str());
  }
  std::string str() const {
    std::string s = "{";
    s += body.str();
    s += '}';
    return s;
  }
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
    top_.add("commit", commitStamp());
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

}  // namespace valpipe::bench

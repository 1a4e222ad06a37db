// valpipe benchmark: the main program.
//
//   perfbench --workload figures|compile|serve --seed N --seconds S
//             --trace 0|1 --workdir DIR [--commit ID]
//
// Runs one workload and prints, as the last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics (plus tracing overhead and span coverage)
// with --trace 1.  The line before it records provenance.  DIR receives the
// same record and, for a traced run, every span as a Chrome trace.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "programs.hpp"
#include "workloads.hpp"

namespace perfbench {

double peakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double vmSizeMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmSize:", 0) == 0)
      return std::strtod(line.c_str() + 7, nullptr) / 1024.0;  // kB
  throw std::runtime_error("no VmSize in /proc/self/status");
}

void addCompileLayerMetrics(const std::vector<Span>& spans, Metrics& out) {
  const auto totals = totalsByName(spans);
  const std::pair<const char*, const char*> layers[] = {
      {"val.frontend", "val.frontend_ms"}, {"core.build", "core.build_ms"},
      {"core.normalize", "core.normalize_ms"}, {"core.balance", "core.balance_ms"},
      {"core.lower", "core.lower_ms"},     {"exec.flatten", "exec.flatten_ms"},
      {"sched.schedule", "sched.schedule_ms"}};
  for (const auto& [span, metric] : layers) {
    const auto it = totals.find(span);
    out[metric] = {it == totals.end()
                       ? 0.0
                       : static_cast<double>(it->second.selfNs) / 1e6 /
                             static_cast<double>(it->second.calls),
                   "ms"};
  }
}

void addCountMetrics(const ProgramCounts& c, bool traced, Metrics& out) {
  if (!traced) {
    out["code_cells"] = {c.cells, "cells"};
    out["buffer_stages"] = {c.buffers, "stages"};
    return;
  }
  out["core.cells_built"] = {c.cellsBuilt, "cells"};
  out["opt.cells_absorbed"] = {c.absorbed, "cells"};
  out["sched.accepted_share"] = {c.programs > 0 ? c.accepted / c.programs : 0.0,
                                 "ratio"};
}

void requireCoverage(const std::vector<Span>& spans, const char* root,
                     Outcome& out) {
  const double share = coverage(spans, root);
  out.metrics["trace.coverage"] = {share, "ratio"};
  if (share < kMinCoverage)
    out.problems.push_back("layer spans cover " + std::to_string(share) +
                           " of the " + root + " wall time, below " +
                           std::to_string(kMinCoverage));
}

}  // namespace perfbench

namespace {

using namespace perfbench;

using MetricList = std::vector<std::pair<std::string, std::string>>;

/// Every end-to-end metric and its unit; each workload reports all of them.
const MetricList kEndToEnd = {
    {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
    {"elems_per_s", "elements/s"}, {"sim_rate", "results/instr"},
    {"compile_ms_p50", "ms"},  {"compile_ms_p90", "ms"},
    {"code_cells", "cells"},   {"buffer_stages", "stages"},
    {"req_per_s", "req/s"},    {"latency_ms_p50", "ms"},
    {"latency_ms_p99", "ms"}};

/// Every per-layer metric and its unit.  A workload that does not exercise
/// a layer reports 0 for it (e.g. machine.fig2.* on serve).
MetricList perLayerList() {
  MetricList l = {{"val.frontend_ms", "ms"},     {"core.build_ms", "ms"},
                  {"core.normalize_ms", "ms"},   {"core.balance_ms", "ms"},
                  {"core.lower_ms", "ms"},       {"core.cells_built", "cells"},
                  {"opt.cells_absorbed", "cells"}, {"exec.flatten_ms", "ms"},
                  {"sched.schedule_ms", "ms"},   {"sched.accepted_share", "ratio"}};
  for (const char* fig : {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"}) {
    const std::string k = std::string("machine.") + fig;
    l.push_back({k + ".ns_per_firing", "ns"});
    l.push_back({k + ".ff_share", "ratio"});
    l.push_back({k + ".sim_rate", "results/instr"});
  }
  const MetricList rest = {
      {"wire.encode_us", "us"},           {"wire.decode_us", "us"},
      {"serve.server_ms_p50", "ms"},      {"serve.server_ms_p99", "ms"},
      {"serve.transport_ms_p50", "ms"},   {"serve.lanes_per_run", "lanes"},
      {"serve.batched_share", "ratio"},   {"serve.fallback_share", "ratio"},
      {"serve.solo_reruns_per_req", "reruns"}, {"serve.cache_hit_share", "ratio"},
      {"serve.firings_per_req", "firings"}, {"serve.vm_mb_per_req", "MiB"},
      {"trace.overhead", "ratio"},        {"trace.coverage", "ratio"}};
  l.insert(l.end(), rest.begin(), rest.end());
  return l;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Exactly the metrics of `wanted`, with its units.  A metric missing from
/// `got` is an error when `required`, else 0 (a layer the workload does not
/// exercise); a metric outside `wanted` is always an error.
Metrics listedMetrics(const MetricList& wanted, const Metrics& got,
                      bool required) {
  for (const auto& [name, m] : got)
    if (std::none_of(wanted.begin(), wanted.end(),
                     [&](const auto& w) { return w.first == name; }))
      throw std::logic_error("reported unlisted metric " + name);
  Metrics out;
  for (const auto& [name, unit] : wanted) {
    const auto it = got.find(name);
    if (it == got.end() && required)
      throw std::logic_error("did not measure " + name);
    out[name] = {it == got.end() ? 0.0 : it->second.value, unit};
  }
  return out;
}

/// Metrics at nominal host speed: durations divided by `factor`, rates
/// multiplied by it, everything else unchanged.
Metrics atNominalSpeed(Metrics m, double factor) {
  for (auto& [name, metric] : m) {
    const std::string& u = metric.unit;
    if (u == "s" || u == "ms" || u == "us" || u == "ns") metric.value /= factor;
    else if (u == "elements/s" || u == "req/s") metric.value *= factor;
  }
  return m;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload figures|compile|serve --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--commit ID]\n";
  std::exit(2);
}

std::string provenance(const Args& a, const std::string& commit) {
  std::ostringstream os;
  os << "{\"workload\": " << jsonString(a.workload) << ", \"seed\": " << a.seed
     << ", \"seconds\": " << jsonNumber(a.seconds)
     << ", \"trace\": " << (a.trace ? 1 : 0)
     << ", \"commit\": " << jsonString(commit)
     << ", \"compiler\": " << jsonString(std::string("g++-compatible ") + __VERSION__)
     << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
     << ", \"flags\": " << jsonString(PERFBENCH_CXX_FLAGS)
     << ", \"optimized\": " << (kOptimized ? "true" : "false")
     << ", \"sanitized\": " << (kSanitized ? "true" : "false")
     << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN) << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string commit = "unknown";
  bool haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") args.workload = v;
      else if (flag == "--seed") args.seed = std::stoull(v), haveSeed = true;
      else if (flag == "--seconds") args.seconds = std::stod(v), haveSeconds = true;
      else if (flag == "--trace") args.trace = std::stoi(v) != 0, haveTrace = true;
      else if (flag == "--workdir") args.workdir = v;
      else if (flag == "--commit") commit = v;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!haveSeed || !haveSeconds || !haveTrace || args.workdir.empty() ||
      !(args.seconds > 0))
    usage("--seed, --seconds > 0, --trace and --workdir are required");
  if (!kOptimized || kSanitized) {
    std::cerr << "perfbench: refusing to time an "
              << (kSanitized ? "instrumented (sanitizer)" : "unoptimized")
              << " build; configure with CMAKE_BUILD_TYPE=Release\n";
    return 3;
  }

  Tracer tr;
  tr.setEnabled(args.trace);
  try {
    Outcome out;
    if (args.workload == "figures") out = runFigures(args, tr);
    else if (args.workload == "compile") out = runCompile(args, tr);
    else if (args.workload == "serve") out = runServe(args, tr);
    else usage("unknown workload " + args.workload);
    for (const std::string& p : out.problems)
      std::cerr << "perfbench: " << args.workload << ": " << p << "\n";

    const bool correct = out.problems.empty() && out.ops.failed() == 0;
    const Metrics raw = listedMetrics(args.trace ? perLayerList() : kEndToEnd,
                                      out.metrics, !args.trace);
    const double factor = out.host.factor();
    const std::string result =
        resultLine(correct, out.ops.attempted(), out.ops.failed(),
                   atNominalSpeed(raw, factor));
    const std::string prov = provenance(args, commit);

    const std::filesystem::path dir =
        std::filesystem::path(args.workdir) / "results";
    std::filesystem::create_directories(dir);
    const std::string stem = args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0");
    {
      std::ofstream f(dir / (stem + ".json"));
      f << "{\"provenance\": " << prov << ",\n \"result\": " << result
        << ",\n \"host_factor\": " << jsonNumber(factor)
        << ",\n \"as_measured\": "
        << resultLine(correct, out.ops.attempted(), out.ops.failed(), raw)
        << ",\n \"problems\": [";
      for (std::size_t i = 0; i < out.problems.size(); ++i)
        f << (i ? ", " : "") << jsonString(out.problems[i]);
      f << "]}\n";
    }
    if (args.trace) {
      std::ofstream f(dir / (stem + "-spans.json"));
      tr.writeChromeTrace(f);
    }
    std::cout << "provenance: " << prov << "\n" << result << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << ": " << e.what() << "\n";
    return 1;
  }
}

// compile: the cost a valc run or a serve cache miss pays before the first
// firing.  A fixed, seeded draw of programs — the five example programs and
// the figure sources, crossed with every option combination that compiles —
// is compiled cold from source text to ExecutableGraph plus schedule IR,
// pass after pass in a seeded order.
//
// Sizes are stratified: within each size group the shapes own fixed
// log-spaced strata of the size range and the seed only jitters each size
// inside its stratum.  Percentiles and sums over the draw therefore measure
// the compiler, not which seed happened to draw the large programs.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <random>

#include "programs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using vp::core::ArrayRouting;
using vp::core::BalanceMode;
using vp::core::CompileOptions;
using vp::core::ForallScheme;
using vp::core::ForIterScheme;

constexpr std::size_t kSetups = 15;

struct Program {
  Source source;
  CompileOptions options;
  std::int64_t m = 0;
  std::string text;
};

/// Every (source, options) shape that compiles, sizes not yet assigned.
std::vector<Program> shapes() {
  std::vector<CompileOptions> forIter;
  {
    CompileOptions o;
    o.forIterScheme = ForIterScheme::Todd;
    forIter.push_back(o);
    for (int k : {2, 4, 8, 16}) {
      o.forIterScheme = ForIterScheme::Companion;
      o.companionSkip = k;
      forIter.push_back(o);
    }
    o = {};
    o.forIterScheme = ForIterScheme::LongFifo;
    forIter.push_back(o);
  }
  std::vector<Program> all;
  for (Source s : {Source::Forall, Source::Selection, Source::Conditional,
                   Source::Figure3, Source::Recurrence, Source::RowScale,
                   Source::Stencil}) {
    std::vector<CompileOptions> base =
        hasForIter(s) ? forIter : std::vector<CompileOptions>{CompileOptions{}};
    // LongFifo interleaves a single recurrence; it rejects multi-block
    // programs by design.
    if (s == Source::Figure3) base.pop_back();
    for (ForallScheme fa : {ForallScheme::Pipeline, ForallScheme::Parallel}) {
      // The parallel scheme maps one-dimensional forall blocks only.
      if (fa == ForallScheme::Parallel &&
          (s == Source::Recurrence || s == Source::RowScale ||
           s == Source::Stencil))
        continue;
      for (CompileOptions o : base)
        for (BalanceMode bal : {BalanceMode::Optimal, BalanceMode::LongestPath})
          for (ArrayRouting rt : {ArrayRouting::Stream, ArrayRouting::Memory}) {
            o.forallScheme = fa;
            o.balanceMode = bal;
            o.routing = rt;
            all.push_back({s, o, 0, {}});
          }
    }
  }
  return all;
}

/// Assigns each shape of one size group a size in [lo, hi]: shape i owns
/// log-spaced stratum (i * stride) mod n and the seed jitters it inside.
void assignSizes(std::vector<Program>& group, std::int64_t lo, std::int64_t hi,
                 std::mt19937_64& rng) {
  const std::size_t n = group.size();
  if (n == 0) return;
  std::size_t stride = static_cast<std::size_t>(0.618 * static_cast<double>(n));
  while (std::gcd(std::max<std::size_t>(stride, 1), n) != 1) ++stride;
  stride = std::max<std::size_t>(stride, 1);
  std::uniform_real_distribution<double> jitter(0.3, 0.7);
  const double span = std::log(double(hi) / double(lo));
  for (std::size_t i = 0; i < n; ++i) {
    const double stratum = static_cast<double>((i * stride) % n);
    const double u = (stratum + jitter(rng)) / static_cast<double>(n);
    group[i].m = std::llround(double(lo) * std::exp(u * span));
  }
}

/// The draw: every shape at two sizes, so 96 shapes give 192 programs.
std::vector<Program> draw(std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x636f6d70696c65ull);
  std::vector<Program> pipeline, parallel;
  for (int copy = 0; copy < 2; ++copy)
    for (const Program& p : shapes())
      (p.options.forallScheme == ForallScheme::Parallel ? parallel : pipeline)
          .push_back(p);
  assignSizes(pipeline, 64, 4096, rng);
  assignSizes(parallel, 16, 128, rng);
  pipeline.insert(pipeline.end(), parallel.begin(), parallel.end());
  for (Program& p : pipeline) p.text = sourceText(p.source, p.m);
  return pipeline;
}

}  // namespace

Outcome runCompile(const Args& args, Tracer& tr) {
  Outcome out;

  // Set-up: generate the draw and compile each source once at a small size
  // so lazy allocations and first-touch costs finish before timing.  Later
  // set-ups are spread between passes so setup_s samples the whole run.
  std::vector<double> setupS;
  auto setUp = [&] {
    tr.setEnabled(args.trace);
    auto root = tr.span("bench.setup");
    const auto t0 = Clock::now();
    std::vector<Program> programs = draw(args.seed);
    for (Source s : {Source::Forall, Source::Selection, Source::Conditional,
                     Source::Figure3, Source::Recurrence, Source::RowScale,
                     Source::Stencil})
      compileProgram(tr, sourceText(s, 64), {});
    setupS.push_back(secondsSince(t0));
    return programs;
  };
  const std::vector<Program> programs = setUp();
  const std::size_t n = programs.size();

  // One wave of program i on the engine; returns its run time (0 when it
  // did not run).  Its first run is checked against val::evaluate.  A
  // mismatch marks the program wrong: every compile and every run of it
  // fails.
  std::mt19937_64 rng(args.seed);
  std::vector<std::optional<Built>> last(n);
  std::vector<std::vector<std::size_t>> opsOf(n);  ///< one op per pass
  std::vector<double> simRate(n, 0.0);
  std::vector<bool> checked(n, false), wrong(n, false);
  auto engineRun = [&](std::size_t i) -> double {
    if (!last[i]) return 0.0;
    const Built& b = *last[i];
    const bool recurrence = hasForIter(programs[i].source);
    const vp::run::StreamMap in = randomInputs(
        b.program, rng, recurrence ? -0.9 : -1.0, recurrence ? 0.9 : 1.0);
    const auto t0 = Clock::now();
    const vp::machine::MachineResult r =
        simulate(tr, b, in, vp::machine::SchedulerKind::EventDriven);
    const double seconds = secondsSince(t0);
    if (checked[i]) return seconds;
    checked[i] = true;
    auto root = tr.span("bench.check");
    vp::val::Module mod;
    {
      auto s = tr.span("val.frontend");
      mod = vp::core::frontend(programs[i].text);
    }
    const auto got = r.outputs.find(b.program.outputName);
    if (r.completed && got != r.outputs.end() &&
        matchesEvaluator(tr, mod, b.program, in, got->second)) {
      simRate[i] = r.steadyRate(b.program.outputName);
    } else {
      wrong[i] = true;
      out.problems.push_back(std::string(sourceName(programs[i].source)) +
                             " m=" + std::to_string(programs[i].m) +
                             ": engine output differs from val::evaluate");
    }
    return seconds;
  };

  // Measured phase: whole passes over the draw in a seeded order, until the
  // time is up and p99 has enough samples.  After each pass every program
  // runs one wave on the engine, outside the timed compiles.
  std::vector<std::vector<double>> tracedMs(n), untracedMs(n);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const std::size_t needed = samplesNeeded(99);
  std::vector<double> passSeconds;
  std::vector<OpLog> engineRuns(n);  ///< one engine run per program and pass
  const auto start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    const double measured = secondsSince(start);
    if (measured >= args.seconds && out.ops.attempted() >= needed) break;
    if (measured >= 3 * args.seconds) break;
    if (setupS.size() < kSetups &&
        measured >= args.seconds * static_cast<double>(setupS.size()) / kSetups)
      setUp();
    const bool traced = args.trace && pass % 2 == 0;
    tr.setEnabled(traced);
    auto root = tr.span("bench.round");
    std::shuffle(order.begin(), order.end(), rng);
    double seconds = 0;
    for (std::size_t i : order) {
      const auto t0 = Clock::now();
      bool ok = true;
      try {
        last[i] = compileProgram(tr, programs[i].text, programs[i].options,
                                 static_cast<std::uint32_t>(i));
      } catch (const std::exception& e) {
        ok = false;
        if (pass == 0)
          out.problems.push_back(std::string(sourceName(programs[i].source)) +
                                 " m=" + std::to_string(programs[i].m) + ": " +
                                 e.what());
      }
      const double s = secondsSince(t0);
      opsOf[i].push_back(out.ops.add(s, ok));
      if (out.ops.attempted() % 16 == 0) out.host.sample();
      seconds += s;
      (traced ? tracedMs : untracedMs)[i].push_back(s * 1e3);
    }
    passSeconds.push_back(seconds);
    for (std::size_t i = 0; i < n; ++i) {
      const double s = engineRun(i);
      if (last[i]) engineRuns[i].add(s, true);
      else engineRuns[i].addFailed();
    }
  }
  while (setupS.size() < kSetups) setUp();
  tr.setEnabled(args.trace);

  // A wrong or uncompiled program keeps its place in every figure: its
  // compiles and runs fail and it rates 0.
  std::vector<double> simRates, elems;
  ProgramCounts counts;
  for (std::size_t i = 0; i < n; ++i) {
    if (last[i]) counts.add(*last[i]);
    if (wrong[i]) {
      for (std::size_t op : opsOf[i]) out.ops.fail(op);
      for (std::size_t k = 0; k < engineRuns[i].attempted(); ++k)
        engineRuns[i].fail(k);
    }
    simRates.push_back(last[i] && !wrong[i] ? simRate[i] : 0.0);
    elems.push_back(last[i] ? static_cast<double>(
                                  last[i]->program.expectedOutputPerWave())
                            : 0.0);
  }
  // Compiles per pass that passed every check.
  std::vector<double> passOk(passSeconds.size(), 0.0);
  for (const auto& ops : opsOf)
    for (std::size_t k = 0; k < ops.size(); ++k)
      passOk[k] += out.ops.ok(ops[k]) ? 1 : 0;

  if (!args.trace) {
    Metrics& m = out.metrics;
    // Per program: the median of its compiles, +inf once any check failed.
    const std::vector<double> lat = out.ops.latenciesMs();
    std::vector<double> programMs;
    for (const auto& ops : opsOf) {
      std::vector<double> ms;
      for (std::size_t op : ops) ms.push_back(lat[op]);
      programMs.push_back(median(ms));
    }
    m["setup_s"] = {median(setupS), "s"};
    m["peak_rss_mb"] = {peakRssMb(), "MiB"};
    m["elems_per_s"] = {geomeanRate(elems, engineRuns), "elements/s"};
    m["sim_rate"] = {geomean(simRates), "results/instr"};
    m["compile_ms_p50"] = {requirePercentile(programMs, 50, "compile_ms"), "ms"};
    m["compile_ms_p90"] = {requirePercentile(programMs, 90, "compile_ms"), "ms"};
    addCountMetrics(counts, false, m);
    m["req_per_s"] = {medianRate(passOk, passSeconds), "req/s"};
    // Every compile repeats its program's work: count each at its program's
    // median, as figures does, so p99 does not land in the host-noise tail
    // of the slowest program's few compiles.
    std::vector<std::size_t> programOf(lat.size());
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t op : opsOf[i]) programOf[op] = i;
    const std::vector<double> atMedians = atClassMedians(lat, programOf);
    m["latency_ms_p50"] = {requirePercentile(atMedians, 50, "latency_ms"), "ms"};
    m["latency_ms_p99"] = {requirePercentile(atMedians, 99, "latency_ms"), "ms"};
    return out;
  }

  Metrics& m = out.metrics;
  const std::vector<Span> spans = tr.spans();
  addCompileLayerMetrics(spans, m);
  addCountMetrics(counts, true, m);
  m["trace.overhead"] = {tracingOverhead(tracedMs, untracedMs), "ratio"};
  requireCoverage(spans, "bench.round", out);
  return out;
}

}  // namespace perfbench

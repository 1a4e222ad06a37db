// figures: the engine alone over long single-tenant streams.
//
// The seven programs of the paper's figures at m = 4096 are compiled and
// flattened during set-up, then run round-robin by machine::simulate on
// SchedulerKind::Compiled (which falls back to EventDriven where the
// schedule IR declines).  Each run draws its inputs from a seeded pool of
// kPool sets per program, so every run's outputs can be compared with the
// EventDriven run of the same inputs without re-running the slow scheduler
// inside the measured phase.
#include <limits>
#include <optional>
#include <random>

#include "programs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using vp::machine::SchedulerKind;

constexpr std::int64_t kM = 4096;
/// Set-ups per run, spread over the measured phase so setup_s and
/// compile_ms sample the whole run: 7 programs x 30 = 210 compile samples.
constexpr std::size_t kSetups = 30;
constexpr int kPool = 8;

struct Figure {
  const char* name;
  std::optional<Source> source;  ///< nullopt: fig2's hand-built graph
  vp::core::CompileOptions options;
  double lo = -1.0, hi = 1.0;  ///< input range (recurrences stay bounded)
};

std::vector<Figure> figures() {
  vp::core::CompileOptions todd, companion;
  todd.forIterScheme = vp::core::ForIterScheme::Todd;
  companion.forIterScheme = vp::core::ForIterScheme::Companion;
  companion.companionSkip = 4;
  return {
      {"fig2", std::nullopt, {}},
      {"fig3", Source::Figure3, {}, -0.9, 0.9},
      {"fig4", Source::Selection, {}},
      {"fig5", Source::Conditional, {}},
      {"fig6", Source::Forall, {}},
      {"fig7", Source::Recurrence, todd, -0.9, 0.9},
      {"fig8", Source::Recurrence, companion, -0.9, 0.9},
  };
}

/// Everything measured about one figure program.
struct Row {
  std::vector<vp::run::StreamMap> pool;
  std::vector<std::uint64_t> expected;  ///< EventDriven digest per pool entry
  double steadyRate = 0.0;
  std::int64_t outputElems = 0;
  OpLog runs;  ///< every measured run; a wrong one reads +inf
  // Over the runs that passed:
  double okSeconds = 0.0;
  std::vector<double> traced, untraced;  ///< trace mode: per-round split
  std::uint64_t firings = 0, firingsSkipped = 0;
  bool usable = true;
};

}  // namespace

Outcome runFigures(const Args& args, Tracer& tr) {
  Outcome out;
  const std::vector<Figure> figs = figures();
  std::vector<std::string> texts;
  for (const Figure& f : figs)
    texts.push_back(f.source ? sourceText(*f.source, kM) : std::string());

  // Set-up: compile, flatten and schedule the seven programs.  The first
  // set-up's programs are the ones measured; the later ones are timed only.
  std::vector<double> setupS, compileMs;
  std::vector<std::size_t> compileClass;  ///< program of each compileMs sample
  auto setUp = [&] {
    tr.setEnabled(args.trace);
    auto root = tr.span("bench.setup");
    std::vector<std::optional<Built>> built(figs.size());
    const auto t0 = Clock::now();
    for (std::size_t p = 0; p < figs.size(); ++p) {
      const auto c0 = Clock::now();
      try {
        built[p] = figs[p].source
                       ? compileProgram(tr, texts[p], figs[p].options)
                       : buildFigure2(tr, kM);
      } catch (const std::exception& e) {
        if (setupS.empty())
          out.problems.push_back(std::string(figs[p].name) + ": " + e.what());
      }
      compileMs.push_back(built[p] ? secondsSince(c0) * 1e3
                                   : std::numeric_limits<double>::infinity());
      compileClass.push_back(p);
    }
    setupS.push_back(secondsSince(t0));
    return built;
  };
  const std::vector<std::optional<Built>> built = setUp();

  // Checks outside the measured phase: the Reference oracle and the Val
  // evaluator once per program, and the EventDriven digest of every pool
  // entry the measured runs will be compared with.
  std::vector<Row> rows(figs.size());
  std::mt19937_64 rng(args.seed);
  for (std::size_t p = 0; p < figs.size(); ++p) {
    Row& row = rows[p];
    if (!built[p]) {
      row.usable = false;
      continue;
    }
    const Built& b = *built[p];
    auto root = tr.span("bench.check");
    for (int j = 0; j < kPool; ++j) {
      row.pool.push_back(randomInputs(b.program, rng, figs[p].lo, figs[p].hi));
      const vp::machine::MachineResult ed =
          simulate(tr, b, row.pool.back(), SchedulerKind::EventDriven);
      row.expected.push_back(digest(ed));
      if (j > 0) continue;
      row.steadyRate = ed.steadyRate(b.program.outputName);
      row.outputElems = b.program.expectedOutputPerWave();
      const vp::machine::MachineResult ref =
          simulate(tr, b, row.pool.back(), SchedulerKind::Reference);
      vp::val::Module mod;
      {
        auto s = tr.span("val.frontend");
        mod = vp::core::frontend(figs[p].source ? texts[p] : figure2Source(kM));
      }
      const bool oracle = ed.completed && identical(ed, ref);
      const bool evaluator = matchesEvaluator(
          tr, mod, b.program, row.pool.back(),
          ed.outputs.at(b.program.outputName));
      if (!oracle || !evaluator) {
        row.usable = false;
        out.problems.push_back(std::string(figs[p].name) +
                               (oracle ? ": differs from val::evaluate"
                                       : ": EventDriven differs from Reference"));
      }
    }
  }

  // Measured phase: rounds over the seven programs until the time is up and
  // p99 has enough samples, with the remaining set-ups spread between
  // rounds.  A traced run alternates traced and untraced rounds so the same
  // process measures its own tracing overhead.
  std::uniform_int_distribution<int> pick(0, kPool - 1);
  const std::size_t needed = samplesNeeded(99);
  std::vector<double> roundOk, roundSeconds;
  std::vector<std::size_t> runClass;  ///< program x input of each out.ops run
  const auto start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const double measured = secondsSince(start);
    if (measured >= args.seconds && out.ops.attempted() >= needed) break;
    if (measured >= 3 * args.seconds) break;
    if (setupS.size() < kSetups &&
        measured >= args.seconds * static_cast<double>(setupS.size()) / kSetups)
      setUp();
    out.host.sample();
    const bool traced = args.trace && round % 2 == 0;
    tr.setEnabled(traced);
    auto root = tr.span("bench.round");
    const auto r0 = Clock::now();
    double ok = 0;
    for (std::size_t p = 0; p < figs.size(); ++p) {
      Row& row = rows[p];
      if (!row.usable) {
        out.ops.addFailed();
        runClass.push_back(p * kPool);
        row.runs.addFailed();
        continue;
      }
      const int j = pick(rng);
      runClass.push_back(p * kPool + static_cast<std::size_t>(j));
      const auto t0 = Clock::now();
      const vp::machine::MachineResult r =
          simulate(tr, *built[p], row.pool[static_cast<std::size_t>(j)],
                   SchedulerKind::Compiled);
      const double s = secondsSince(t0);
      const bool same = r.completed &&
                        digest(r) == row.expected[static_cast<std::size_t>(j)];
      out.ops.add(s, same);
      row.runs.add(s, same);
      if (!same) continue;
      ok += 1;
      row.okSeconds += s;
      (traced ? row.traced : row.untraced).push_back(s);
      row.firings += r.totalFirings;
      row.firingsSkipped += r.compiled.firingsSkipped;
    }
    roundOk.push_back(ok);
    roundSeconds.push_back(secondsSince(r0));
  }
  while (setupS.size() < kSetups) setUp();
  tr.setEnabled(args.trace);

  // A program that failed its checks keeps its place in every mean: rate 0,
  // runs +inf.
  std::vector<double> elems, simRates;
  std::vector<OpLog> runs;
  ProgramCounts counts;
  for (std::size_t p = 0; p < figs.size(); ++p) {
    const Row& row = rows[p];
    if (built[p]) counts.add(*built[p]);
    elems.push_back(static_cast<double>(row.outputElems));
    runs.push_back(row.runs);
    simRates.push_back(row.usable ? row.steadyRate : 0.0);
  }

  if (!args.trace) {
    Metrics& m = out.metrics;
    // Every run repeats the work of its program and input, and every compile
    // that of its program, so percentiles count each at its class's median:
    // a raw p99 lands in the host-noise tail of the slowest program's runs.
    const std::vector<double> lat =
        atClassMedians(out.ops.latenciesMs(), runClass);
    const std::vector<double> compile = atClassMedians(compileMs, compileClass);
    m["setup_s"] = {median(setupS), "s"};
    m["peak_rss_mb"] = {peakRssMb(), "MiB"};
    m["elems_per_s"] = {geomeanRate(elems, runs), "elements/s"};
    m["sim_rate"] = {geomean(simRates), "results/instr"};
    m["compile_ms_p50"] = {requirePercentile(compile, 50, "compile_ms"), "ms"};
    m["compile_ms_p90"] = {requirePercentile(compile, 90, "compile_ms"), "ms"};
    addCountMetrics(counts, false, m);
    m["req_per_s"] = {medianRate(roundOk, roundSeconds), "req/s"};
    // p50 per program, then their geometric mean: the overall p50 would sit
    // on whichever program's runs straddle the middle.
    m["latency_ms_p50"] = {geomeanMedianMs(runs), "ms"};
    m["latency_ms_p99"] = {requirePercentile(lat, 99, "latency_ms"), "ms"};
    return out;
  }

  Metrics& m = out.metrics;
  const std::vector<Span> spans = tr.spans();
  addCompileLayerMetrics(spans, m);
  addCountMetrics(counts, true, m);
  std::vector<std::vector<double>> traced, untraced;
  for (std::size_t p = 0; p < figs.size(); ++p) {
    const Row& row = rows[p];
    if (!row.usable || row.firings == 0) continue;
    const std::string key = std::string("machine.") + figs[p].name;
    m[key + ".ns_per_firing"] = {
        1e9 * row.okSeconds / static_cast<double>(row.firings), "ns"};
    m[key + ".ff_share"] = {static_cast<double>(row.firingsSkipped) /
                                static_cast<double>(row.firings),
                            "ratio"};
    m[key + ".sim_rate"] = {row.steadyRate, "results/instr"};
    traced.push_back(row.traced);
    untraced.push_back(row.untraced);
  }
  m["trace.overhead"] = {tracingOverhead(traced, untraced), "ratio"};
  requireCoverage(spans, "bench.round", out);
  return out;
}

}  // namespace perfbench

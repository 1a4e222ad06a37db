// CB — compiled backend: SchedulerKind::Compiled (steady-state fast-forward
// over the sched::SteadySchedule IR) vs the event-driven scheduler on the
// fig2–fig8 workloads at m = 4096.
//
// The compiled scheduler runs the pipeline fill live, detects the steady
// state, fast-forwards all full hyper-periods in bulk (no time wheel, no
// ready queue, no per-token ack traffic for the skipped windows), then
// resumes live for the drain.  The straight-line fig2 pipeline takes the
// vectorized steady-loop value path; fig3, fig4, fig6, fig7 and fig8, whose
// gates and merges are driven by compile-time sequences, replay the
// recorded steady window; fig5's gates follow the data, so it declines to
// the event loop with a structured reason.  Each row times the two
// schedulers with bench::timeInterleaved; its speed-up is the median of the
// per-round EventDriven / Compiled time ratios.  Gates: that median
// >= 10x on fig2 and >= 2.5x on the replay rows, and every row bit-identical
// to the event-driven run (bench::identical: outputs, output times,
// firings, cycles and packet counters).  Exits 1 when a gate fails.
#include "bench_common.hpp"

#include "dfg/graph.hpp"
#include "exec/executable_graph.hpp"
#include "sched/schedule.hpp"

namespace {

using namespace valpipe;
using machine::SchedulerKind;

/// Figure 2's three-stage pipeline, verbatim.
dfg::Graph figure2Graph(std::int64_t n) {
  dfg::Graph g;
  const auto a = g.input("a", n);
  const auto b = g.input("b", n);
  const auto y = g.binary(dfg::Op::Mul, dfg::Graph::out(a), dfg::Graph::out(b),
                          "cell1");
  const auto p = g.binary(dfg::Op::Add, dfg::Graph::out(y),
                          dfg::Graph::lit(Value(2.0)), "cell2");
  const auto q = g.binary(dfg::Op::Sub, dfg::Graph::out(y),
                          dfg::Graph::lit(Value(3.0)), "cell3");
  const auto r = g.binary(dfg::Op::Mul, dfg::Graph::out(p), dfg::Graph::out(q),
                          "cell4");
  g.output("x", dfg::Graph::out(r));
  return g;
}

std::string figure3Source(std::int64_t m) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function fig3(B, C: array[real] [0, m+1]; A2: array[real] [1, m]
              returns array[real])
  let
    A : array[real] := forall i in [0, m+1]
        P : real := if (i = 0) | (i = m+1) then C[i]
                    else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
      construct B[i] * (P * P)
      endall;
    X : array[real] := for i : integer := 1;
        T : array[real] := [0: 0]
      do let P : real := A2[i]*T[i-1] + A[i]
         in if i < m + 1 then iter T := T[i: P]; i := i + 1 enditer
            else T endif
         endlet
      endfor
  in X endlet
endfun
)";
}

std::string selectionSource(std::int64_t m) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function sel(C: array[real] [0, m+1] returns array[real])
  forall i in [1, m]
  construct 0.25 * (C[i-1] + 2.*C[i] + C[i+1])
  endall
endfun
)";
}

std::string conditionalSource(std::int64_t m) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function cond(A, B, C: array[real] [1, m] returns array[real])
  forall i in [1, m]
  construct if C[i] > 0. then -(A[i] + B[i])
            else 5. * (A[i] * B[i] + 2.) endif
  endall
endfun
)";
}

/// One prepared workload: a lowered graph plus its inputs and run options.
struct Workload {
  std::string name;
  dfg::Graph lowered;
  run::StreamMap inputs;
  machine::RunOptions opts;
  double minSpeedup = 2.5;  ///< speed gate; 0 records without gating
};

Workload fromProgram(std::string name, const core::CompiledProgram& prog,
                     run::StreamMap in) {
  Workload w;
  w.name = std::move(name);
  w.lowered = dfg::isLowered(prog.graph) ? prog.graph
                                         : dfg::expandFifos(prog.graph);
  w.inputs = std::move(in);
  w.opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
  return w;
}

std::vector<Workload> workloads(std::int64_t m) {
  std::vector<Workload> all;

  Workload f2;
  f2.name = "fig2 pipeline";
  f2.lowered = figure2Graph(m);
  f2.inputs = {{"a", bench::randomStream(m, 1)},
               {"b", bench::randomStream(m, 2)}};
  f2.opts.expectedOutputs["x"] = m;
  f2.minSpeedup = 10.0;
  all.push_back(std::move(f2));

  {
    const auto prog = core::compileSource(figure3Source(m));
    all.push_back(
        fromProgram("fig3 program", prog, bench::randomInputs(prog, 7, -0.9, 0.9)));
  }
  {
    const auto prog = core::compileSource(selectionSource(m));
    all.push_back(
        fromProgram("fig4 selection", prog, bench::randomInputs(prog, 11)));
  }
  {
    const auto prog = core::compileSource(conditionalSource(m));
    all.push_back(
        fromProgram("fig5 conditional", prog, bench::randomInputs(prog, 13)));
    all.back().minSpeedup = 0.0;  // data-dependent control: declines
  }
  {
    const auto prog = core::compileSource(bench::example1Source(m));
    all.push_back(
        fromProgram("fig6 forall", prog, bench::randomInputs(prog, 17)));
  }
  {
    core::CompileOptions todd;
    todd.forIterScheme = core::ForIterScheme::Todd;
    const auto prog = core::compileSource(bench::example2Source(m), todd);
    all.push_back(fromProgram("fig7 todd", prog,
                              bench::randomInputs(prog, 19, -0.9, 0.9)));
  }
  {
    core::CompileOptions comp;
    comp.forIterScheme = core::ForIterScheme::Companion;
    comp.companionSkip = 4;
    const auto prog = core::compileSource(bench::example2Source(m), comp);
    all.push_back(fromProgram("fig8 companion", prog,
                              bench::randomInputs(prog, 23, -0.9, 0.9)));
  }
  return all;
}

}  // namespace

std::string gateText(double minSpeedup) {
  char buf[32];
  std::snprintf(buf, sizeof buf, ">= %.1fx", minSpeedup);
  return buf;
}

/// How the compiled run reconstructed the values it skipped.
const char* valuePath(const machine::MachineResult::CompiledInfo& ci) {
  return !ci.accepted    ? "declined"
         : ci.vectorized ? "steady-loop"
         : ci.replayed   ? "replay"
                         : "none";
}

int main() {
  using namespace valpipe;
  const std::int64_t m = 4096;
  bench::banner(
      "CB (compiled backend)",
      "SchedulerKind::Compiled steady-state fast-forward vs event-driven",
      ">= 10x wall-clock on the straight-line fig2 pipeline and >= 2.5x on "
      "the compile-time-control figures at m = 4096, bit-identical results "
      "everywhere");

  bench::BenchJson json("compiled_backend", SchedulerKind::Compiled);
  json.meta("workload", "fig2-fig8 at m = 4096, compiled vs event-driven");
  json.meta("m", m);
  TextTable table({"workload", "cells", "cycles", "ed ms", "compiled ms",
                   "speedup", "gate", "path", "ff share", "same"});
  bool allPass = true;
  for (const Workload& w : workloads(m)) {
    machine::RunOptions edOpts = w.opts;
    edOpts.scheduler = SchedulerKind::EventDriven;
    machine::RunOptions cpOpts = w.opts;
    cpOpts.scheduler = SchedulerKind::Compiled;
    machine::MachineResult ed, cp;
    const bench::Timing t = bench::timeInterleaved(
        {bench::simulateVariant(w.lowered, w.inputs, edOpts, ed),
         bench::simulateVariant(w.lowered, w.inputs, cpOpts, cp)});
    const bool same = bench::identical(ed, cp);
    const bench::Spread speedup = t.ratio(0, 1);
    const bool pass = same && speedup.median >= w.minSpeedup;
    allPass = allPass && pass;
    const auto& ci = cp.compiled;
    const sched::SteadySchedule ss =
        sched::computeSteadySchedule(exec::ExecutableGraph(w.lowered));
    const double ffShare = static_cast<double>(ci.firingsSkipped) /
                           static_cast<double>(cp.totalFirings);
    table.addRow({w.name, std::to_string(w.lowered.size()),
                  std::to_string(ed.cycles), fmtDouble(t.seconds(0) * 1e3, 2),
                  fmtDouble(t.seconds(1) * 1e3, 2),
                  fmtDouble(speedup.median, 2) + " (" +
                      fmtDouble(speedup.min, 2) + "-" +
                      fmtDouble(speedup.max, 2) + ")",
                  w.minSpeedup > 0 ? gateText(w.minSpeedup) : "-",
                  valuePath(ci), fmtDouble(ffShare, 3),
                  same ? "yes" : "NO"});
    bench::JsonObj row;
    row.add("workload", w.name)
        .add("cells", static_cast<std::int64_t>(w.lowered.size()))
        .add("cycles", ed.cycles)
        .add("event_ms", t.seconds(0) * 1e3)
        .add("compiled_ms", t.seconds(1) * 1e3)
        .add("speedup", speedup)
        .add("speedup_gate", w.minSpeedup)
        .add("value_path", valuePath(ci))
        .add("decline", sched::declineName(ss.decline))
        .add("ff_share", ffShare)
        .add("jumps", ci.jumps)
        .add("windows_skipped", ci.windowsSkipped)
        .add("firings_skipped", static_cast<std::int64_t>(ci.firingsSkipped))
        .add("reason", ci.reason)
        .add("identical", same)
        .add("pass", pass);
    json.addRow(row);
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "acceptance: every row bit-identical and at its speed gate %s\n\n",
      allPass ? "PASS" : "FAIL");
  json.meta("all_pass", allPass);
  json.write();
  return allPass ? 0 : 1;
}

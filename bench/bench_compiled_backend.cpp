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
// the event loop with a structured reason.  Gates: fig2 >= 10x, the replay
// rows >= 2.5x, and every row bit-identical to the event-driven run
// (outputs, output times, firings, cycles and packet counters).  Exits 1
// when a gate fails.
#include "bench_common.hpp"

#include <chrono>

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

std::string forallSource(std::int64_t m) {
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
    const auto prog = core::compileSource(forallSource(m));
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

struct Timed {
  machine::MachineResult res;
  double seconds = 0.0;
};

Timed runTimed(const Workload& w, SchedulerKind kind, int reps = 5) {
  machine::RunOptions opts = w.opts;
  opts.scheduler = kind;
  Timed best;
  best.seconds = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    machine::MachineResult res = machine::simulate(
        w.lowered, machine::MachineConfig::unit(), w.inputs, opts);
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (s < best.seconds) best = {std::move(res), s};
  }
  return best;
}

/// Bit-identity across everything a client could observe.
bool identical(const machine::MachineResult& a,
               const machine::MachineResult& b) {
  return a.outputs == b.outputs && a.outputTimes == b.outputTimes &&
         a.firings == b.firings && a.totalFirings == b.totalFirings &&
         a.cycles == b.cycles && a.completed == b.completed &&
         a.packets.opPacketsByClass == b.packets.opPacketsByClass &&
         a.packets.resultPackets == b.packets.resultPackets &&
         a.packets.ackPackets == b.packets.ackPackets &&
         a.packets.networkResultPackets == b.packets.networkResultPackets;
}

void BM_CompiledFig2(benchmark::State& state) {
  Workload w;
  w.name = "fig2";
  w.lowered = figure2Graph(state.range(0));
  w.inputs = {{"a", bench::randomStream(state.range(0), 1)},
              {"b", bench::randomStream(state.range(0), 2)}};
  w.opts.expectedOutputs["x"] = state.range(0);
  for (auto _ : state) {
    auto t = runTimed(w, SchedulerKind::Compiled, 1);
    benchmark::DoNotOptimize(t.res.cycles);
  }
}
void BM_EventFig2(benchmark::State& state) {
  Workload w;
  w.name = "fig2";
  w.lowered = figure2Graph(state.range(0));
  w.inputs = {{"a", bench::randomStream(state.range(0), 1)},
              {"b", bench::randomStream(state.range(0), 2)}};
  w.opts.expectedOutputs["x"] = state.range(0);
  for (auto _ : state) {
    auto t = runTimed(w, SchedulerKind::EventDriven, 1);
    benchmark::DoNotOptimize(t.res.cycles);
  }
}
BENCHMARK(BM_CompiledFig2)->Arg(1024)->Arg(4096)->Arg(16384);
BENCHMARK(BM_EventFig2)->Arg(1024)->Arg(4096)->Arg(16384);

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

int main(int argc, char** argv) {
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
    const Timed ed = runTimed(w, SchedulerKind::EventDriven);
    const Timed cp = runTimed(w, SchedulerKind::Compiled);
    const bool same = identical(ed.res, cp.res);
    const double speedup = ed.seconds / cp.seconds;
    const bool pass = same && speedup >= w.minSpeedup;
    allPass = allPass && pass;
    const auto& ci = cp.res.compiled;
    const sched::SteadySchedule ss =
        sched::computeSteadySchedule(exec::ExecutableGraph(w.lowered));
    const double ffShare = static_cast<double>(ci.firingsSkipped) /
                           static_cast<double>(cp.res.totalFirings);
    table.addRow({w.name, std::to_string(w.lowered.size()),
                  std::to_string(ed.res.cycles),
                  fmtDouble(ed.seconds * 1e3, 2),
                  fmtDouble(cp.seconds * 1e3, 2), fmtDouble(speedup, 2),
                  w.minSpeedup > 0 ? gateText(w.minSpeedup) : "-",
                  valuePath(ci), fmtDouble(ffShare, 3),
                  same ? "yes" : "NO"});
    bench::JsonObj row;
    row.add("workload", w.name)
        .add("cells", static_cast<std::int64_t>(w.lowered.size()))
        .add("cycles", ed.res.cycles)
        .add("event_ms", ed.seconds * 1e3)
        .add("compiled_ms", cp.seconds * 1e3)
        .add("speedup", speedup)
        .add("min_speedup", w.minSpeedup)
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
  const int timings = bench::runTimings(argc, argv);
  return allPass ? timings : 1;
}

// ES — engine scaling: throughput of the reference stepper (full rescan)
// and the event-driven ready queue on the F2 / F6 / F8 workload graphs as
// the array extent m grows.
//
// The reference stepper costs O(cells) re-derived enabling work per
// instruction time; the event-driven scheduler runs on an ExecutableGraph
// lowered once and only examines cells with a wake event.  Throughput is
// reported as cells x cycles per second of wall time (simulated cell-cycles
// per second), the natural unit for a rescan-style simulator.  Both
// schedulers must produce identical outputs.
#include "bench_common.hpp"

#include <chrono>

#include "dfg/graph.hpp"

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
  std::int64_t m = 0;
  dfg::Graph lowered;
  run::StreamMap inputs;
  machine::RunOptions opts;
};

Workload fromProgram(std::string name, std::int64_t m,
                     const core::CompiledProgram& prog,
                     run::StreamMap in) {
  Workload w;
  w.name = std::move(name);
  w.m = m;
  w.lowered = dfg::isLowered(prog.graph) ? prog.graph
                                         : dfg::expandFifos(prog.graph);
  w.inputs = std::move(in);
  w.opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
  return w;
}

Workload f2Workload(std::int64_t m) {
  Workload w;
  w.name = "F2 pipeline";
  w.m = m;
  w.lowered = figure2Graph(m);
  w.inputs = {{"a", bench::randomStream(m, 1)},
              {"b", bench::randomStream(m, 2)}};
  w.opts.expectedOutputs["x"] = m;
  return w;
}

Workload f6Workload(std::int64_t m) {
  const auto prog = core::compileSource(forallSource(m));
  return fromProgram("F6 forall", m, prog, bench::randomInputs(prog, 5));
}

Workload f8Workload(std::int64_t m) {
  core::CompileOptions comp;
  comp.forIterScheme = core::ForIterScheme::Companion;
  comp.companionSkip = 4;
  const auto prog = core::compileSource(bench::example2Source(m), comp);
  return fromProgram("F8 companion", m, prog,
                     bench::randomInputs(prog, 3, -0.9, 0.9));
}

struct Timed {
  machine::MachineResult res;
  double seconds = 0.0;
};

Timed runTimed(const Workload& w, SchedulerKind kind, int reps = 3) {
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

double cellCyclesPerSec(const Workload& w, const Timed& t) {
  return static_cast<double>(w.lowered.size()) *
         static_cast<double>(t.res.cycles) / t.seconds;
}

void BM_Scheduler(benchmark::State& state, SchedulerKind kind) {
  const Workload w = f6Workload(state.range(0));
  for (auto _ : state) {
    auto t = runTimed(w, kind);
    benchmark::DoNotOptimize(t.res.cycles);
  }
}
void BM_Reference(benchmark::State& s) { BM_Scheduler(s, SchedulerKind::Reference); }
void BM_EventDriven(benchmark::State& s) { BM_Scheduler(s, SchedulerKind::EventDriven); }
BENCHMARK(BM_Reference)->Arg(256)->Arg(1024);
BENCHMARK(BM_EventDriven)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  using namespace valpipe;
  bench::banner(
      "ES (engine scaling)",
      "reference stepper vs event-driven scheduler",
      "identical results; event-driven >= 2x cell-cycles/sec on the m=4096 "
      "F6 forall graph");

  bench::BenchJson json("engine_scaling");
  json.meta("workload", "F2 / F6 / F8 graphs, schedulers side by side");
  TextTable table({"workload", "m", "cells", "cycles", "ref Mcc/s",
                   "ed Mcc/s", "ed/ref", "same"});
  double f6At4096Speedup = 0.0;
  for (std::int64_t m : {std::int64_t(64), std::int64_t(256),
                         std::int64_t(1024), std::int64_t(4096)}) {
    for (const Workload& w : {f2Workload(m), f6Workload(m), f8Workload(m)}) {
      const Timed ref = runTimed(w, SchedulerKind::Reference);
      const Timed ed = runTimed(w, SchedulerKind::EventDriven);
      const bool same = ref.res.outputs == ed.res.outputs &&
                        ref.res.cycles == ed.res.cycles &&
                        ref.res.totalFirings == ed.res.totalFirings;
      const double speedup =
          cellCyclesPerSec(w, ed) / cellCyclesPerSec(w, ref);
      if (w.name == "F6 forall" && m == 4096) f6At4096Speedup = speedup;
      table.addRow({w.name, std::to_string(m),
                    std::to_string(w.lowered.size()),
                    std::to_string(ref.res.cycles),
                    fmtDouble(cellCyclesPerSec(w, ref) / 1e6, 3),
                    fmtDouble(cellCyclesPerSec(w, ed) / 1e6, 3),
                    fmtDouble(speedup, 2), same ? "yes" : "NO"});
      bench::JsonObj row;
      row.add("workload", w.name)
          .add("m", m)
          .add("cells", static_cast<std::int64_t>(w.lowered.size()))
          .add("ref_mccs", cellCyclesPerSec(w, ref) / 1e6)
          .add("ed_mccs", cellCyclesPerSec(w, ed) / 1e6)
          .add("ed_over_ref", speedup)
          .add("identical", same);
      json.addRow(row);
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("acceptance: event-driven vs reference on F6 forall, m=4096: "
              "%.2fx (target >= 2x) %s\n\n",
              f6At4096Speedup, f6At4096Speedup >= 2.0 ? "PASS" : "FAIL");
  json.meta("f6_m4096_ed_over_ref", f6At4096Speedup);
  json.write();
  return bench::runTimings(argc, argv);
}

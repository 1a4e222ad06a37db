// ES — engine scaling: throughput of the reference stepper (full rescan)
// and the event-driven ready queue on the F2 / F6 / F8 workload graphs as
// the array extent m grows.
//
// The reference stepper costs O(cells) re-derived enabling work per
// instruction time; the event-driven scheduler runs on an ExecutableGraph
// lowered once and only examines cells with a wake event.  Throughput is
// reported as cells x cycles per second of wall time (simulated cell-cycles
// per second), the natural unit for a rescan-style simulator.  Each row
// times the two schedulers with bench::timeInterleaved; ed/ref is the
// median of the per-round Reference / EventDriven time ratios (both runs
// have the same cells and cycles).  Gates: every row bit-identical
// (bench::identical), and ed/ref >= 2x on F6 forall at m = 4096.  Exits 1
// when a gate fails.
#include "bench_common.hpp"

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
  const auto prog = core::compileSource(bench::example1Source(m));
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

}  // namespace

int main() {
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
  bench::Spread f6At4096;
  bool allIdentical = true;
  for (std::int64_t m : {std::int64_t(64), std::int64_t(256),
                         std::int64_t(1024), std::int64_t(4096)}) {
    for (const Workload& w : {f2Workload(m), f6Workload(m), f8Workload(m)}) {
      machine::RunOptions refOpts = w.opts;
      refOpts.scheduler = SchedulerKind::Reference;
      machine::RunOptions edOpts = w.opts;
      edOpts.scheduler = SchedulerKind::EventDriven;
      machine::MachineResult ref, ed;
      const bench::Timing t = bench::timeInterleaved(
          {bench::simulateVariant(w.lowered, w.inputs, refOpts, ref),
           bench::simulateVariant(w.lowered, w.inputs, edOpts, ed)});
      const bool same = bench::identical(ref, ed);
      allIdentical = allIdentical && same;
      const bench::Spread speedup = t.ratio(0, 1);
      if (w.name == "F6 forall" && m == 4096) f6At4096 = speedup;
      const double cellCycles = static_cast<double>(w.lowered.size()) *
                                static_cast<double>(ed.cycles);
      const double refMccs = cellCycles / t.seconds(0) / 1e6;
      const double edMccs = cellCycles / t.seconds(1) / 1e6;
      table.addRow({w.name, std::to_string(m),
                    std::to_string(w.lowered.size()),
                    std::to_string(ed.cycles), fmtDouble(refMccs, 3),
                    fmtDouble(edMccs, 3), fmtDouble(speedup.median, 2),
                    same ? "yes" : "NO"});
      bench::JsonObj row;
      row.add("workload", w.name)
          .add("m", m)
          .add("cells", static_cast<std::int64_t>(w.lowered.size()))
          .add("ref_mccs", refMccs)
          .add("ed_mccs", edMccs)
          .add("ed_over_ref", speedup)
          .add("identical", same);
      json.addRow(row);
    }
  }
  std::printf("%s\n", table.str().c_str());
  const bool pass = allIdentical && f6At4096.median >= 2.0;
  std::printf("acceptance: every row identical (%s); event-driven vs "
              "reference on F6 forall, m=4096: %.2fx (%.2f-%.2f over %d "
              "rounds; target >= 2x) %s\n\n",
              allIdentical ? "yes" : "NO", f6At4096.median, f6At4096.min,
              f6At4096.max, bench::kRounds, pass ? "PASS" : "FAIL");
  json.meta("f6_m4096_ed_over_ref", f6At4096.median);
  json.meta("all_identical", allIdentical);
  json.meta("pass", pass);
  json.write();
  return pass ? 0 : 1;
}

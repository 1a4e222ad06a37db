// F2 — Figure 2: the three-stage pipeline for
//     let y : real := a*b in (y+2.)*(y-3.) endlet
// Fully pipelined: every cell fires once per two instruction times, so the
// output rate approaches 0.5 results per instruction time regardless of
// stream length.
#include "bench_common.hpp"

#include "dfg/graph.hpp"

namespace {

using namespace valpipe;

/// Builds Figure 2's machine code verbatim: cell 1 MULT feeding cells 2
/// (ADD) and 3 (SUB), which feed cell 4 (MULT).
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

double rateFor(std::int64_t n) {
  dfg::Graph g = figure2Graph(n);
  machine::RunOptions opts;
  opts.expectedOutputs["x"] = n;
  const auto res = machine::simulate(
      g, machine::MachineConfig::unit(),
      {{"a", bench::randomStream(n, 1)}, {"b", bench::randomStream(n, 2)}},
      opts);
  return res.steadyRate("x");
}

}  // namespace

int main() {
  using namespace valpipe;
  bench::banner("F2 (Figure 2)",
                "3-stage pipeline for (a*b+2)*(a*b-3)",
                "rate -> 0.5 results/instruction time, independent of n");

  bench::BenchJson json("fig2");
  json.meta("workload", "3-stage pipeline (a*b+2)*(a*b-3)");
  TextTable table({"n", "cells", "measured rate", "paper", "verdict"});
  for (std::int64_t n : {64, 256, 1024, 4096}) {
    const double rate = rateFor(n);
    table.addRow({std::to_string(n), "7", fmtDouble(rate, 4), "0.5",
                  rate > 0.48 ? "fully pipelined" : "DEGRADED"});
    bench::JsonObj row;
    row.add("n", n).add("rate", rate);
    json.addRow(row);
  }
  std::printf("%s\n", table.str().c_str());

  // §3 audit: re-run with the metrics sink and check every cell's steady
  // firing period against the paper's bound of two instruction times.
  {
    const std::int64_t n = 1024;
    dfg::Graph g = figure2Graph(n);
    machine::RunOptions opts;
    opts.expectedOutputs["x"] = n;
    const obs::RateReport audit = bench::auditRun(
        g, {{"a", bench::randomStream(n, 1)}, {"b", bench::randomStream(n, 2)}},
        opts);
    bench::printAudit(audit);
    json.meta("audit", audit.line());
  }
  json.write();
  return 0;
}

// F7 — Figure 7: Todd's translation of the for-iter construct (Example 2).
// The feedback link from the merge output to the loop body entry prevents
// full pipelining: with 3 cells between x_{i-1} and x_i the initiation rate
// cannot exceed 1/3.
#include "bench_common.hpp"

int main() {
  using namespace valpipe;
  bench::banner("F7 (Figure 7)",
                "Todd's for-iter scheme on Example 2 (x_i = A_i x_{i-1} + B_i)",
                "3-stage feedback cycle => initiation rate 1/3, not 1/2");

  core::CompileOptions todd;
  todd.forIterScheme = core::ForIterScheme::Todd;

  bench::BenchJson json("fig7");
  json.meta("workload", "Todd for-iter scheme on Example 2");
  TextTable table({"m", "cells", "cycle S", "rate", "paper (1/S)"});
  for (std::int64_t m : {64, 256, 1024, 4096}) {
    const auto prog = core::compileSource(bench::example2Source(m), todd);
    const auto in = bench::randomInputs(prog, 3, -0.9, 0.9);
    const double rate = bench::measureRate(prog, in).steadyRate;
    table.addRow({std::to_string(m),
                  std::to_string(prog.graph.loweredCellCount()),
                  std::to_string(prog.blocks[0].cycleStages),
                  fmtDouble(rate, 4),
                  fmtDouble(1.0 / static_cast<double>(
                                       prog.blocks[0].cycleStages), 4)});
    bench::JsonObj row;
    row.add("m", m).add("cycle_stages", prog.blocks[0].cycleStages)
        .add("rate", rate);
    json.addRow(row);
  }
  std::printf("%s\n", table.str().c_str());

  // §3 audit against the *derived* bound: this scheme is cycle-limited by
  // design, so its steady period is the S-stage feedback cycle, not the
  // paper's 2 (auditing against 2 would flag every cell — correctly).
  {
    const auto prog = core::compileSource(bench::example2Source(1024), todd);
    const std::int64_t bound = prog.blocks[0].cycleStages;
    const obs::RateReport audit = bench::auditProgram(
        prog, bench::randomInputs(prog, 3, -0.9, 0.9), bound);
    std::printf("audited against the derived cycle bound S = %lld:\n",
                static_cast<long long>(bound));
    bench::printAudit(audit);
    json.meta("audit", audit.line());
    json.meta("period_bound", bound);
  }
  json.write();

  // Longer recurrence bodies make the cycle — and the slowdown — bigger.
  std::printf("-- rate vs. recurrence-body length (m = 1024) --\n");
  TextTable byBody({"body", "cycle S", "rate", "paper (1/S)"});
  struct Case { const char* label; const char* expr; };
  for (const Case& c : {Case{"A*x + B", "A[i]*T[i-1] + B[i]"},
                        Case{"A*x*x + B", "A[i]*(T[i-1]*T[i-1]) + B[i]"},
                        Case{"A*x*x*x + B",
                             "A[i]*(T[i-1]*(T[i-1]*T[i-1])) + B[i]"}}) {
    const std::string src = std::string("const m = 1024\n") +
        "function f(A, B: array[real] [1, m] returns array[real])\n"
        "  for i : integer := 1; T : array[real] := [0: 0.1]\n"
        "  do let P : real := " + c.expr + "\n"
        "     in if i < m + 1 then iter T := T[i: P]; i := i + 1 enditer\n"
        "        else T endif endlet endfor\nendfun\n";
    const auto prog = core::compileSource(src, todd);
    const auto in = bench::randomInputs(prog, 9, -0.7, 0.7);
    byBody.addRow({c.label, std::to_string(prog.blocks[0].cycleStages),
                   fmtDouble(bench::measureRate(prog, in).steadyRate, 4),
                   fmtDouble(1.0 / static_cast<double>(
                                        prog.blocks[0].cycleStages), 4)});
  }
  std::printf("%s\n", byBody.str().c_str());
  return 0;
}

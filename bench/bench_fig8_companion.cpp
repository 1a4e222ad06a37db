// F8 — Figure 8 / Theorem 3: the companion-pipeline mapping of Example 2.
// The compiler rewrites x_i = F(a_i, x_{i-1}) as x_i = F(c_i, x_{i-k}) where
// c_i comes from an acyclic tree of companion-function applications
// G(a,b) = (a1*b1, a1*b2 + a2).  The feedback cycle stretches to 2k stages
// carrying k packets — an even stage count — restoring the 1/2 maximum.
#include "bench_common.hpp"

int main() {
  using namespace valpipe;
  bench::banner(
      "F8 (Figure 8 / Theorem 3)",
      "companion-pipeline mapping of Example 2 vs Todd's scheme",
      "cycle padded to an even 2k stages with k packets in flight => rate "
      "1/2; ~1.5x faster than Todd's 1/3");

  core::CompileOptions todd;
  todd.forIterScheme = core::ForIterScheme::Todd;

  bench::BenchJson json("fig8");
  json.meta("workload", "companion-pipeline mapping of Example 2");
  TextTable table({"m", "scheme", "cells", "cycle S", "packets k", "rate",
                   "total cycles", "paper"});
  for (std::int64_t m : {256, 1024, 4096}) {
    const std::string src = bench::example2Source(m);
    const auto base = core::compileSource(src, todd);
    const auto baseIn = bench::randomInputs(base, 3, -0.9, 0.9);
    const auto baseRes = bench::measureRate(base, baseIn);
    table.addRow({std::to_string(m), "todd",
                  std::to_string(base.graph.loweredCellCount()),
                  std::to_string(base.blocks[0].cycleStages), "1",
                  fmtDouble(baseRes.steadyRate, 4),
                  std::to_string(baseRes.cycles), "1/3"});
    for (int k : {2, 4, 8}) {
      core::CompileOptions comp;
      comp.forIterScheme = core::ForIterScheme::Companion;
      comp.companionSkip = k;
      const auto prog = core::compileSource(src, comp);
      const auto in = bench::randomInputs(prog, 3, -0.9, 0.9);
      const auto res = bench::measureRate(prog, in);
      table.addRow({std::to_string(m), "companion k=" + std::to_string(k),
                    std::to_string(prog.graph.loweredCellCount()),
                    std::to_string(prog.blocks[0].cycleStages),
                    std::to_string(prog.blocks[0].cycleTokens),
                    fmtDouble(res.steadyRate, 4), std::to_string(res.cycles),
                    "1/2"});
      bench::JsonObj row;
      row.add("m", m).add("k", k).add("rate", res.steadyRate);
      json.addRow(row);
    }
  }
  std::printf("%s\n", table.str().c_str());

  // §3 audit (Theorem 3): the companion mapping restores the period-2 bound
  // even though the graph still contains a feedback cycle.
  {
    core::CompileOptions comp;
    comp.forIterScheme = core::ForIterScheme::Companion;
    comp.companionSkip = 4;
    const auto prog =
        core::compileSource(bench::example2Source(1024), comp);
    const obs::RateReport audit = bench::auditProgram(
        prog, bench::randomInputs(prog, 3, -0.9, 0.9));
    bench::printAudit(audit);
    json.meta("audit", audit.line());
  }
  json.write();
  return 0;
}

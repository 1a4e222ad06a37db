// F6 — Figure 6: the primitive forall of Example 1, mapped with the §6
// pipeline scheme (cascaded definition + accumulation graphs, element
// selection gates, merge for the boundary/interior cases) versus the
// parallel scheme baseline (one body copy per element).
#include "bench_common.hpp"

int main() {
  using namespace valpipe;
  bench::banner(
      "F6 (Figure 6 / Theorem 2)",
      "primitive forall (Example 1): pipeline scheme vs parallel scheme",
      "pipeline: rate -> 0.5 with O(body) cells; parallel: O(n * body) "
      "cells (\"of limited interest\" for streams)");

  bench::BenchJson json("fig6");
  json.meta("workload", "Example 1 forall, pipeline vs parallel scheme");
  TextTable table({"m", "scheme", "cells", "FIFO slots", "rate", "paper"});
  for (std::int64_t m : {64, 256, 1024, 4096}) {
    const auto prog = core::compileSource(bench::example1Source(m));
    const auto in = bench::randomInputs(prog, 5);
    const double rate = bench::measureRate(prog, in, 2).steadyRate;
    table.addRow({std::to_string(m), "pipeline",
                  std::to_string(prog.graph.loweredCellCount()),
                  std::to_string(prog.balance.buffersInserted),
                  fmtDouble(rate, 4), "0.5, ~const cells"});
    bench::JsonObj row;
    row.add("m", m).add("scheme", "pipeline").add("rate", rate);
    json.addRow(row);
    if (m <= 256) {
      core::CompileOptions par;
      par.forallScheme = core::ForallScheme::Parallel;
      const auto pprog = core::compileSource(bench::example1Source(m), par);
      const auto pin = bench::randomInputs(pprog, 5);
      table.addRow({std::to_string(m), "parallel",
                    std::to_string(pprog.graph.loweredCellCount()),
                    std::to_string(pprog.balance.buffersInserted),
                    fmtDouble(bench::measureRate(pprog, pin).steadyRate, 4),
                    "O(n) cells"});
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("(parallel rows stop at m=256: cell count grows linearly, the "
              "scheme does not exploit the stream representation)\n\n");

  // §3 audit of the pipeline scheme (Theorem 2).
  {
    const auto prog = core::compileSource(bench::example1Source(1024));
    const obs::RateReport audit =
        bench::auditProgram(prog, bench::randomInputs(prog, 5));
    bench::printAudit(audit);
    json.meta("audit", audit.line());
  }
  json.write();
  return 0;
}

// F3 — Figure 3 / Theorem 4: the whole pipe-structured program (Example 1's
// forall feeding Example 2's for-iter).  The blocks' fully pipelined
// subgraphs are spliced along the acyclic flow dependency graph and the
// interconnection balanced: the complete program runs at the machine's
// maximum rate.
#include "bench_common.hpp"

namespace {

using namespace valpipe;

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

}  // namespace

int main() {
  using namespace valpipe;
  bench::banner(
      "F3 (Figure 3 / Theorem 4)",
      "pipe-structured program: Example 1 forall -> Example 2 for-iter",
      "whole composed program fully pipelined: rate -> 0.5 end to end");

  bench::BenchJson json("fig3");
  json.meta("workload", "pipe-structured program (Example 1 -> Example 2)");
  TextTable table({"m", "cells", "FIFO slots", "for-iter scheme", "rate",
                   "paper"});
  for (std::int64_t m : {64, 256, 1024, 4096}) {
    const auto prog = core::compileSource(figure3Source(m));
    const auto in = bench::randomInputs(prog, 17, -0.9, 0.9);
    const double rate = bench::measureRate(prog, in, 2).steadyRate;
    table.addRow({std::to_string(m),
                  std::to_string(prog.graph.loweredCellCount()),
                  std::to_string(prog.balance.buffersInserted),
                  prog.blocks[1].scheme, fmtDouble(rate, 4), "0.5"});
    bench::JsonObj row;
    row.add("m", m).add("rate", rate);
    json.addRow(row);
  }
  std::printf("%s\n", table.str().c_str());

  // §3 audit of the composed program (Theorem 4: the splice of fully
  // pipelined blocks stays fully pipelined).
  {
    const auto prog = core::compileSource(figure3Source(1024));
    const obs::RateReport audit =
        bench::auditProgram(prog, bench::randomInputs(prog, 17, -0.9, 0.9));
    bench::printAudit(audit);
    json.meta("audit", audit.line());
  }
  json.write();

  std::printf("-- same program, for-iter mapped with Todd's scheme: the\n");
  std::printf("   slowest stage sets the whole pipeline's rate (Section 3) --\n");
  TextTable todd({"m", "rate", "paper (1/3)"});
  core::CompileOptions topts;
  topts.forIterScheme = core::ForIterScheme::Todd;
  for (std::int64_t m : {256, 1024}) {
    const auto prog = core::compileSource(figure3Source(m), topts);
    const auto in = bench::randomInputs(prog, 17, -0.9, 0.9);
    todd.addRow({std::to_string(m),
                 fmtDouble(bench::measureRate(prog, in).steadyRate, 4),
                 "0.3333"});
  }
  std::printf("%s\n", todd.str().c_str());
  return 0;
}

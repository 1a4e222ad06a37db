// F5 — Figure 5: the if-then-else expression
//     if C[i] then -(A[i]+B[i]) else 5.*(A[i]*B[i]+2.) endif
// Tagged-destination identities route each operand set to one arm; the
// non-strict merge recombines under the (FIFO-delayed) condition stream.
// With balanced arms the structure is fully pipelined for any mix of
// branch outcomes.
#include "bench_common.hpp"

namespace {

using namespace valpipe;

std::string source(std::int64_t m) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function cond(A, B, C: array[real] [1, m] returns array[real])
  forall i in [1, m]
  construct if C[i] > 0. then -(A[i] + B[i])
            else 5. * (A[i] * B[i] + 2.) endif
  endall
endfun
)";
}

/// Condition stream with roughly `percent` taken branches.
std::vector<Value> biased(std::int64_t n, int percent, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<Value> out;
  for (std::int64_t i = 0; i < n; ++i)
    out.push_back(Value(static_cast<int>(rng() % 100) < percent ? 1.0 : -1.0));
  return out;
}

}  // namespace

int main() {
  using namespace valpipe;
  bench::banner("F5 (Figure 5)",
                "fully pipelined if-then-else with data-dependent condition",
                "rate -> 0.5 for any branch mix (balanced arms)");

  std::printf("-- rate vs. stream length (50%% taken) --\n");
  TextTable byN({"m", "cells", "rate", "paper"});
  for (std::int64_t m : {64, 256, 1024, 4096}) {
    const auto prog = core::compileSource(source(m));
    run::StreamMap in;
    in["A"] = bench::randomStream(m, 1);
    in["B"] = bench::randomStream(m, 2);
    in["C"] = biased(m, 50, 3);
    byN.addRow({std::to_string(m),
                std::to_string(prog.graph.loweredCellCount()),
                fmtDouble(bench::measureRate(prog, in).steadyRate, 4), "0.5"});
  }
  std::printf("%s\n", byN.str().c_str());

  std::printf("-- rate vs. taken fraction (m = 1024) --\n");
  TextTable byMix({"taken %", "rate", "paper"});
  bench::BenchJson json("fig5");
  json.meta("workload", "if-then-else with data-dependent condition");
  const std::int64_t m = 1024;
  const auto prog = core::compileSource(source(m));
  for (int pct : {0, 25, 50, 75, 100}) {
    run::StreamMap in;
    in["A"] = bench::randomStream(m, 1);
    in["B"] = bench::randomStream(m, 2);
    in["C"] = biased(m, pct, 3);
    const double rate = bench::measureRate(prog, in).steadyRate;
    byMix.addRow({std::to_string(pct), fmtDouble(rate, 4), "0.5"});
    bench::JsonObj row;
    row.add("taken_pct", pct).add("rate", rate);
    json.addRow(row);
  }
  std::printf("%s\n", byMix.str().c_str());

  // §3 audit with an all-taken condition stream, so every cell of the taken
  // arm carries the full token rate (arm cells fire data-dependently under a
  // mixed condition, which is branch statistics, not a pipeline stall).
  {
    run::StreamMap in;
    in["A"] = bench::randomStream(m, 1);
    in["B"] = bench::randomStream(m, 2);
    in["C"] = biased(m, 100, 3);
    const obs::RateReport audit = bench::auditProgram(prog, in);
    bench::printAudit(audit);
    json.meta("audit", audit.line());
  }
  json.write();
  return 0;
}

// F4 — Figure 4: array element selection 0.25*(C[i-1] + 2*C[i] + C[i+1]).
// Gated identities discard the unused boundary elements; FIFO buffering
// absorbs the index skew between the three shifted streams.  Balanced code
// sustains the maximum rate; removing the skew buffers degrades it.
#include "bench_common.hpp"

namespace {

using namespace valpipe;

std::string source(std::int64_t m) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function sel(C: array[real] [0, m+1] returns array[real])
  forall i in [1, m]
  construct 0.25 * (C[i-1] + 2.*C[i] + C[i+1])
  endall
endfun
)";
}

}  // namespace

int main() {
  using namespace valpipe;
  bench::banner(
      "F4 (Figure 4)", "pipelined array selection 0.25*(C[i-1]+2C[i]+C[i+1])",
      "with skew FIFOs: rate -> 0.5; without buffering the skewed streams "
      "jam and the rate drops");

  bench::BenchJson json("fig4");
  json.meta("workload", "array selection 0.25*(C[i-1]+2C[i]+C[i+1])");
  TextTable table({"m", "cells", "FIFO slots", "rate balanced",
                   "rate unbuffered", "paper"});
  for (std::int64_t m : {64, 256, 1024, 4096}) {
    const auto balanced = core::compileSource(source(m));
    core::CompileOptions none;
    none.balanceMode = core::BalanceMode::None;
    const auto raw = core::compileSource(source(m), none);

    const auto in = bench::randomInputs(balanced, 11);
    const double rBal = bench::measureRate(balanced, in).steadyRate;
    const double rRaw = bench::measureRate(raw, in).steadyRate;
    table.addRow({std::to_string(m),
                  std::to_string(balanced.graph.loweredCellCount()),
                  std::to_string(balanced.balance.buffersInserted),
                  fmtDouble(rBal, 4), fmtDouble(rRaw, 4), "0.5 / <0.5"});
    bench::JsonObj row;
    row.add("m", m).add("rate_balanced", rBal).add("rate_unbuffered", rRaw);
    json.addRow(row);
  }
  std::printf("%s\n", table.str().c_str());

  // §3 audit of both variants: the balanced code passes; the unbuffered
  // code is flagged cell by cell with the short skew paths named.
  {
    const auto balanced = core::compileSource(source(1024));
    const auto in = bench::randomInputs(balanced, 11);
    const obs::RateReport good = bench::auditProgram(balanced, in);
    std::printf("balanced:   ");
    bench::printAudit(good);
    json.meta("audit", good.line());

    core::CompileOptions none;
    none.balanceMode = core::BalanceMode::None;
    const obs::RateReport bad =
        bench::auditProgram(core::compileSource(source(1024), none), in);
    std::printf("unbuffered: ");
    bench::printAudit(bad);
    json.meta("audit_unbuffered", bad.line());
  }
  json.write();
  return 0;
}

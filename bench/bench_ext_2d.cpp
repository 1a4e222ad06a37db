// E1 (extension, §9) — two-dimensional arrays: "the extension of this work
// to array values of multiple dimension is straightforward."  A 2-D forall
// five-point stencil streams row-major through the pipeline scheme; full
// pipelining carries over, with the selection-gate skew now spanning whole
// rows (the N/S neighbours are W packets apart, Fig. 4's FIFOs scale with
// the row width).
#include "bench_common.hpp"

namespace {

using namespace valpipe;

std::string stencilSource(std::int64_t n) {
  return "const n = " + std::to_string(n) + "\n" + R"(
function stencil(U: array[real] [0, n+1] [0, n+1] returns array[real])
  forall i in [0, n+1], j in [0, n+1]
    D : real := if (i = 0) | (i = n+1) | (j = 0) | (j = n+1) then 0.
                else U[i-1, j] + U[i+1, j] + U[i, j-1] + U[i, j+1]
                     - 4. * U[i, j] endif;
  construct U[i, j] + 0.2 * D
  endall
endfun
)";
}

}  // namespace

int main() {
  using namespace valpipe;
  bench::banner(
      "E1 (Section 9 extension)",
      "2-D forall five-point stencil, row-major streaming",
      "full pipelining carries over to multiple dimensions: rate -> 0.5; "
      "the row-skew FIFO budget grows with the grid width");

  TextTable table({"grid", "packets/wave", "cells", "FIFO slots", "rate",
                   "paper"});
  for (std::int64_t n : {8, 16, 32, 64}) {
    const auto prog = core::compileSource(stencilSource(n));
    const auto in = bench::randomInputs(prog, 91, 0.0, 1.0);
    table.addRow({std::to_string(n) + "x" + std::to_string(n),
                  std::to_string(prog.expectedOutputPerWave()),
                  std::to_string(prog.graph.loweredCellCount()),
                  std::to_string(prog.balance.buffersInserted),
                  fmtDouble(bench::measureRate(prog, in).steadyRate, 4),
                  "0.5"});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "(The vertical-neighbour gates deliver packets a full row early/late,\n"
      " so the inserted FIFO budget grows ~2x with the grid width — the 2-D\n"
      " incarnation of Figure 4's skew buffers.)\n\n");
  return 0;
}

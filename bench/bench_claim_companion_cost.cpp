// C5 — §7 trade-off discussion: "the overhead of backing up of companion
// functions will grow considerably when p is big".  We quantify the
// companion pipeline's instruction-cell and work overhead as the dependence
// distance k grows, against the rate it buys.
#include "bench_common.hpp"

namespace {

using namespace valpipe;

struct Row {
  std::string scheme;
  std::size_t cells;
  std::uint64_t firings;   ///< total work (operation packets)
  double rate;
  std::int64_t cycles;
};

Row measure(std::int64_t m, int k) {
  core::CompileOptions opts;
  if (k <= 1) {
    opts.forIterScheme = core::ForIterScheme::Todd;
  } else {
    opts.forIterScheme = core::ForIterScheme::Companion;
    opts.companionSkip = k;
  }
  const auto prog = core::compileSource(bench::example2Source(m), opts);
  const auto in = bench::randomInputs(prog, 51, -0.9, 0.9);

  dfg::Graph lowered = dfg::expandFifos(prog.graph);
  machine::RunOptions ropts;
  ropts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
  const auto res = machine::simulate(lowered, machine::MachineConfig::unit(),
                                     in, ropts);
  return {k <= 1 ? std::string("todd") : "companion k=" + std::to_string(k),
          lowered.size(), res.totalFirings, res.steadyRate(prog.outputName),
          res.cycles};
}

}  // namespace

int main() {
  using namespace valpipe;
  bench::banner(
      "C5 (Section 7 trade-off)",
      "companion-pipeline overhead vs dependence distance k (Example 2)",
      "cells and executed work grow ~linearly in k (log2 k G-levels, each "
      "with gates and 3 ops, plus prologue); the rate gain saturates at "
      "1/2, so moderate k is the sweet spot");

  const std::int64_t m = 1024;
  const Row base = measure(m, 1);
  TextTable table({"scheme", "cells", "x cells", "firings", "x work", "rate",
                   "speedup", "cycles"});
  auto emit = [&](const Row& r) {
    table.addRow({r.scheme, std::to_string(r.cells),
                  fmtDouble(static_cast<double>(r.cells) /
                                static_cast<double>(base.cells), 3),
                  std::to_string(r.firings),
                  fmtDouble(static_cast<double>(r.firings) /
                                static_cast<double>(base.firings), 3),
                  fmtDouble(r.rate, 4),
                  fmtDouble(static_cast<double>(base.cycles) /
                                static_cast<double>(r.cycles), 3),
                  std::to_string(r.cycles)});
  };
  emit(base);
  for (int k : {2, 4, 8, 16}) emit(measure(m, k));
  std::printf("%s\n", table.str().c_str());
  return 0;
}

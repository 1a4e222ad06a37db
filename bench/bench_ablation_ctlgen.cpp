// A1 (ablation) — control-sequence generators: abstract sources vs Todd's
// machine-level counter loops (§5/Fig. 6 presuppose "straightforward
// arrangements of data flow instructions" for the control values; this
// bench quantifies what that arrangement costs and confirms it never
// throttles the pipeline).
#include "bench_common.hpp"

#include <sstream>

namespace {

using namespace valpipe;

struct Row {
  std::size_t cells;
  std::size_t generators;  ///< abstract sources remaining
  double rate;
};

Row measure(const std::string& src, bool lowerCtl,
            core::ForIterScheme scheme = core::ForIterScheme::Auto) {
  core::CompileOptions opts;
  opts.lowerControl = lowerCtl;
  opts.forIterScheme = scheme;
  const auto prog = core::compileSource(src, opts);
  const auto in = bench::randomInputs(prog, 71, -0.9, 0.9);
  const auto stats = dfg::computeStats(prog.graph);
  std::size_t gens = 0;
  if (auto it = stats.byOp.find(dfg::Op::BoolSeq); it != stats.byOp.end())
    gens += it->second;
  if (auto it = stats.byOp.find(dfg::Op::IndexSeq); it != stats.byOp.end())
    gens += it->second;
  return {stats.cells, gens, bench::measureRate(prog, in).steadyRate};
}

}  // namespace

int main() {
  using namespace valpipe;
  bench::banner(
      "A1 (ablation, §5/Todd [15])",
      "abstract control-sequence sources vs lowered counter loops",
      "counter loops cost a constant number of extra cells per distinct "
      "sequence and still run at the machine maximum (the 2-cell increment "
      "loop sustains rate 1/2)");

  TextTable table({"program", "generators", "cells abstract", "cells lowered",
                   "overhead", "rate abstract", "rate lowered"});
  struct Case {
    const char* name;
    std::string src;
    core::ForIterScheme scheme;
  };
  for (const Case& c :
       {Case{"example1 m=256", bench::example1Source(256),
             core::ForIterScheme::Auto},
        Case{"example2/todd m=256", bench::example2Source(256),
             core::ForIterScheme::Todd},
        Case{"example2/companion m=256", bench::example2Source(256),
             core::ForIterScheme::Companion}}) {
    const Row abstract = measure(c.src, false, c.scheme);
    const Row lowered = measure(c.src, true, c.scheme);
    std::ostringstream overhead;
    overhead << "+" << (lowered.cells - abstract.cells) << " cells";
    table.addRow({c.name, std::to_string(abstract.generators),
                  std::to_string(abstract.cells),
                  std::to_string(lowered.cells), overhead.str(),
                  fmtDouble(abstract.rate, 4), fmtDouble(lowered.rate, 4)});
  }
  std::printf("%s\n", table.str().c_str());
  return 0;
}

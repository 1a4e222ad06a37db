// C3 — §8 claims on balancing flow dependency graphs:
//   (1) acyclic graphs admit a polynomial-time balancing algorithm
//       (longest-path relaxation);
//   (2) buffering can often be reduced below the longest-path solution;
//   (3) optimum (minimum-buffer) balancing is the LP dual of a min-cost
//       flow problem, also polynomial.
// We compare total inserted FIFO slots and wall time of both modes on
// growing synthetic pipe-structured programs, and on Example 1 under the
// parallel forall scheme, whose graphs grow with m (one body copy per
// element and a merge chain of length m).  The two modes are timed together
// by bench::timeInterleaved, each run balancing a fresh copy of the graph;
// the table prints each mode's median and the median per-round
// optimal/longest ratio.  Ungated.
#include "bench_common.hpp"

#include <sstream>

#include "core/balance.hpp"

namespace {

using namespace valpipe;

/// A wide pipe-structured program: `lanes` parallel smoothing/recurrence
/// chains that are finally summed pairwise — lots of reconvergence, so
/// balancing has real work to do.
std::string wideSource(int lanes, std::int64_t m) {
  std::ostringstream os;
  os << "const m = " << m << "\n";
  os << "function wide(S: array[real] [0, m+1] returns array[real])\n  let\n";
  for (int l = 0; l < lanes; ++l) {
    // Alternate shallow and deep lanes (skew) and boundary-guarded lanes
    // (control sequences + merges, which longest-path over-buffers).
    os << "    L" << l << " : array[real] := forall i in [1, m]\n";
    os << "      construct ";
    switch (l % 3) {
      case 0:
        os << "S[i-1] + S[i+1]";
        break;
      case 1:
        os << "0.25 * (S[i-1] + 2.*S[i] + S[i+1]) * (0.5 + 0.1 * " << l << ".)";
        break;
      default:
        os << "if (i = 1) | (i = m) then S[i] "
           << "else 0.5 * (S[i-1] * S[i+1]) + S[i] endif";
        break;
    }
    os << " endall\n";
  }
  os << "    Z0 : array[real] := forall i in [1, m] construct ";
  for (int l = 0; l < lanes; ++l) {
    if (l) os << " + ";
    os << "L" << l << "[i]";
  }
  os << " endall\n";
  os << "  in Z0 endlet\nendfun\n";
  return os.str();
}

dfg::Graph unbalancedGraph(int lanes, std::int64_t m) {
  core::CompileOptions opts;
  opts.balanceMode = core::BalanceMode::None;
  return core::compileSource(wideSource(lanes, m), opts).graph;
}

}  // namespace

int main() {
  using namespace valpipe;
  bench::banner(
      "C3 (Section 8, conclusions 1-3)",
      "buffer cost and runtime: longest-path vs optimum (min-cost-flow dual)",
      "both polynomial; optimum inserts no more (typically fewer) FIFO "
      "slots than longest-path balancing");

  TextTable table({"graph", "nodes", "arcs", "slots longest", "slots optimal",
                   "saving", "t longest (ms)", "t optimal (ms)",
                   "optimal/longest"});
  auto addRow = [&](const std::string& name, const dfg::Graph& g) {
    const auto stats = dfg::computeStats(g);
    auto balanced = [&](core::BalanceMode mode, dfg::Graph& copy,
                        std::size_t& slots) {
      return bench::Variant{
          [&copy, &slots, mode] {
            slots = core::balanceGraph(copy, mode).buffersInserted;
          },
          [&copy, &g] { copy = g; }};
    };
    dfg::Graph lpCopy, optCopy;
    std::size_t lpSlots = 0, optSlots = 0;
    const bench::Timing t = bench::timeInterleaved(
        {balanced(core::BalanceMode::LongestPath, lpCopy, lpSlots),
         balanced(core::BalanceMode::Optimal, optCopy, optSlots)});
    const double tLp = t.seconds(0) * 1e3;
    const double tOpt = t.seconds(1) * 1e3;
    std::ostringstream saving;
    saving << (lpSlots == 0 ? 0.0
                            : 100.0 * (1.0 - static_cast<double>(optSlots) /
                                                 static_cast<double>(lpSlots)))
           << "%";
    table.addRow({name, std::to_string(stats.nodes),
                  std::to_string(stats.arcs), std::to_string(lpSlots),
                  std::to_string(optSlots), saving.str(), fmtDouble(tLp, 3),
                  fmtDouble(tOpt, 3), fmtDouble(t.ratio(1, 0).median, 3)});
  };

  core::CompileOptions raw;
  raw.balanceMode = core::BalanceMode::None;
  addRow("example 1", core::compileSource(bench::example1Source(64), raw).graph);
  addRow("example 2", core::compileSource(bench::example2Source(64), raw).graph);
  for (int lanes : {2, 4, 8, 16, 32, 64})
    addRow("wide-" + std::to_string(lanes), unbalancedGraph(lanes, 64));
  core::CompileOptions parallel = raw;
  parallel.forallScheme = core::ForallScheme::Parallel;
  for (std::int64_t m : {64, 128, 256, 512})
    addRow("example 1 parallel m=" + std::to_string(m),
           core::compileSource(bench::example1Source(m), parallel).graph);
  std::printf("%s\n", table.str().c_str());

  std::printf("-- both balanced graphs still run at the full rate --\n");
  TextTable rates({"mode", "rate"});
  for (auto mode : {core::BalanceMode::LongestPath, core::BalanceMode::Optimal}) {
    core::CompileOptions opts;
    opts.balanceMode = mode;
    const auto prog = core::compileSource(wideSource(8, 256), opts);
    const auto in = bench::randomInputs(prog, 31);
    rates.addRow({mode == core::BalanceMode::Optimal ? "optimal" : "longest",
                  fmtDouble(bench::measureRate(prog, in).steadyRate, 4)});
  }
  std::printf("%s\n", rates.str().c_str());
  return 0;
}

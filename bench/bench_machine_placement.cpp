// A3 (architecture) — §2: "the primary packet traffic in the data flow
// machine is the flow of result packets between processing elements through
// the distribution network."  We place compiled code onto PE arrays with two
// strategies and measure the distribution-network share of result packets
// and the rate cost of network hops.
#include "bench_common.hpp"

#include "machine/placement.hpp"

namespace {

using namespace valpipe;

std::string chainSource(std::int64_t n) {
  return "const n = " + std::to_string(n) + "\n" + R"(
function chain(S: array[real] [0, n+1] returns array[real])
  let
    F : array[real] := forall i in [0, n+1]
        P : real := if (i = 0) | (i = n+1) then S[i]
                    else 0.25 * (S[i-1] + 2.*S[i] + S[i+1]) endif;
      construct P endall;
    G : array[real] := forall i in [1, n]
      construct F[i] * F[i] + 0.5 endall
  in G endlet
endfun
)";
}

}  // namespace

int main() {
  using namespace valpipe;
  bench::banner(
      "A3 (architecture placement)",
      "distribution-network traffic and rate vs cell placement",
      "scattered (round-robin) placement routes nearly every result packet "
      "through the network; contiguous placement keeps most arcs inside one "
      "PE.  With multi-cycle network hops, locality converts directly into "
      "pipeline rate");

  const auto prog = core::compileSource(chainSource(512));
  dfg::Graph lowered = dfg::expandFifos(prog.graph);
  const auto in = bench::randomInputs(prog, 101);
  std::printf("program: %zu cells\n\n", lowered.size());

  TextTable table({"PEs", "strategy", "network share", "rate (hop=0)",
                   "rate (hop=2)"});
  for (int pes : {1, 2, 4, 8, 16}) {
    for (auto strategy : {machine::PlacementStrategy::Contiguous,
                          machine::PlacementStrategy::RoundRobin}) {
      const machine::Placement place =
          machine::assignCells(lowered, pes, strategy);
      auto rateWith = [&](int hop) {
        machine::MachineConfig cfg;
        cfg.interPeDelay = hop;
        machine::RunOptions opts;
        opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
        opts.placement = place;
        const auto res = machine::simulate(lowered, cfg, in, opts);
        return std::pair(res.steadyRate(prog.outputName),
                         res.packets.networkShare());
      };
      const auto [rate0, share] = rateWith(0);
      const auto [rate2, share2] = rateWith(2);
      (void)share2;
      table.addRow({std::to_string(pes), machine::toString(strategy),
                    fmtDouble(share, 3), fmtDouble(rate0, 4),
                    fmtDouble(rate2, 4)});
      if (pes == 1) break;  // strategies identical on one PE
    }
  }
  std::printf("%s\n", table.str().c_str());
  return 0;
}

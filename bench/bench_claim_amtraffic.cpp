// C2 — §2 claim: when arrays stream between blocks as result packets (the
// paper's choice), the array memories only hold long-lived data, and "one
// eighth or less of the operation packets would be sent to the array
// memories".  We measure the AM share of operation packets on a multi-block
// program under three layouts:
//   stream        — pure streaming (no AM at all),
//   stream+spill  — streaming plus the result array stored for the next
//                   time step (the paper's intended usage),
//   memory        — every inter-block array through the AM (conventional).
#include "bench_common.hpp"

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
      construct if F[i] > 0.5 then 0.5 + 0.5 * (F[i] - 0.5) else F[i] endif
      endall;
    H : array[real] := for i : integer := 1;
        T : array[real] := [0: 0]
      do let P : real := 0.9 * T[i-1] + 0.1 * G[i]
         in if i < n + 1 then iter T := T[i: P]; i := i + 1 enditer
            else T endif
         endlet
      endfor;
    R : array[real] := forall i in [1, n] construct 100. * H[i] endall
  in R endlet
endfun
)";
}

struct Row {
  std::string layout;
  std::uint64_t ops = 0;
  std::uint64_t amOps = 0;
  double share = 0.0;
  double rate = 0.0;
};

Row measure(const std::string& layout, std::int64_t n,
            core::ArrayRouting routing, bool spillResult) {
  core::CompileOptions opts;
  opts.routing = routing;
  auto prog = core::compileSource(chainSource(n), opts);
  if (spillResult) {
    // The produced field is also written to array memory for the next time
    // step ("data that must be held for a long time interval", §2).
    const dfg::NodeId out = prog.graph.findOutput(prog.outputName);
    prog.graph.amStore("next_step", prog.graph.node(out).inputs[0]);
  }
  const auto in = bench::randomInputs(prog, 23, 0.0, 1.0);
  const auto res = bench::measureRate(prog, in, 2);
  Row row;
  row.layout = layout;
  row.ops = res.packets.opPacketsTotal();
  row.amOps =
      res.packets.opPacketsByClass[static_cast<int>(dfg::FuClass::Am)];
  row.share = res.packets.amShare();
  row.rate = res.steadyRate;
  return row;
}

}  // namespace

int main() {
  using namespace valpipe;
  bench::banner("C2 (Section 2)",
                "array-memory share of operation packets, by array layout",
                "streaming layouts stay at or below 1/8 (0.125); routing "
                "every array through the memories far exceeds it");

  TextTable table({"n", "layout", "op packets", "AM packets", "AM share",
                   "paper bound", "rate"});
  for (std::int64_t n : {256, 1024}) {
    for (const auto& row :
         {measure("stream", n, core::ArrayRouting::Stream, false),
          measure("stream+spill", n, core::ArrayRouting::Stream, true),
          measure("memory", n, core::ArrayRouting::Memory, false)}) {
      table.addRow({std::to_string(n), row.layout, std::to_string(row.ops),
                    std::to_string(row.amOps), fmtDouble(row.share, 4),
                    row.layout == "memory" ? ">> 0.125" : "<= 0.125",
                    fmtDouble(row.rate, 3)});
    }
  }
  std::printf("%s\n", table.str().c_str());
  return 0;
}

// A2 (architecture) — how much hardware sustains full pipelining?  The
// paper's premise (§1–§3) is that fully pipelined code keeps a machine's
// function units busy.  Under the hardware profile (multi-cycle FPU/ALU/AM,
// 1-cycle routing each way) we sweep the FPU pool size and watch the
// pipeline rate saturate, and we report per-class utilization at the knee.
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
    H : array[real] := for i : integer := 1;
        T : array[real] := [0: 0]
      do let P : real := 0.9 * T[i-1] + 0.1 * F[i]
         in if i < n + 1 then iter T := T[i: P]; i := i + 1 enditer
            else T endif
         endlet
      endfor
  in H endlet
endfun
)";
}

}  // namespace

int main() {
  using namespace valpipe;
  bench::banner(
      "A2 (architecture profile)",
      "pipeline rate vs function-unit pool under the hardware timing model",
      "rate climbs with the FPU pool until the dataflow limit (set by the "
      "4-cycle FPU latency and the loop cycle) and then saturates — fully "
      "pipelined code converts hardware into throughput until the "
      "dependence structure binds");

  const auto prog = core::compileSource(chainSource(512));
  const auto in = bench::randomInputs(prog, 81, 0.0, 1.0);
  const auto statsG = dfg::computeStats(prog.graph);
  std::printf("program: %zu cells, %zu FPU-class cells\n\n", statsG.cells,
              [&] {
                std::size_t fp = 0;
                for (const auto& [op, cnt] : statsG.byOp)
                  if (dfg::fuClass(op) == dfg::FuClass::Fpu) fp += cnt;
                return fp;
              }());

  std::printf("-- unit profile baseline --\n");
  std::printf("rate %.4f (dataflow maximum 0.5)\n\n",
              bench::measureRate(prog, in).steadyRate);

  std::printf("-- hardware profile: FPU latency 4, routing/ack 1 cycle --\n");
  TextTable table({"FPUs", "rate", "vs unlimited"});
  dfg::Graph lowered = dfg::expandFifos(prog.graph);
  auto rateWith = [&](int fpus) {
    machine::MachineConfig cfg = machine::MachineConfig::hardware(fpus, 0, 0);
    machine::RunOptions opts;
    opts.waves = 2;
    opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave() * 2;
    const auto res = machine::simulate(lowered, cfg, in, opts);
    return res.steadyRate(prog.outputName);
  };
  const double unlimited = rateWith(0);
  for (int fpus : {1, 2, 4, 8, 16, 32})
    table.addRow({std::to_string(fpus), fmtDouble(rateWith(fpus), 4),
                  fmtDouble(rateWith(fpus) / unlimited, 3)});
  table.addRow({"inf", fmtDouble(unlimited, 4), "1"});
  std::printf("%s\n", table.str().c_str());

  std::printf("-- per-class utilization and packet mix (8 FPUs) --\n");
  {
    machine::MachineConfig cfg = machine::MachineConfig::hardware(8, 0, 0);
    machine::RunOptions opts;
    opts.waves = 2;
    opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave() * 2;
    const auto res = machine::simulate(lowered, cfg, in, opts);
    TextTable util({"class", "op packets", "busy (unit-cycles)", "util of 8"});
    const char* names[4] = {"PE", "ALU", "FPU", "AM"};
    for (int c = 0; c < 4; ++c) {
      const double u =
          c == static_cast<int>(dfg::FuClass::Fpu) && res.cycles > 0
              ? static_cast<double>(res.fuBusy[c]) /
                    (8.0 * static_cast<double>(res.cycles))
              : 0.0;
      util.addRow({names[c], std::to_string(res.packets.opPacketsByClass[c]),
                   std::to_string(res.fuBusy[c]),
                   c == static_cast<int>(dfg::FuClass::Fpu) ? fmtDouble(u, 3)
                                                            : "-"});
    }
    std::printf("%s\n", util.str().c_str());
  }
  return 0;
}

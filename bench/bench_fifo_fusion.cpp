// P5 — FIFO fusion: composite ring-buffer cells vs expanded Id chains.
//
// The optimizer (opt::fuseFifos) collapses each buffering chain into one
// O(1) cell fired with the chain's exact external timing, so a depth-k FIFO
// costs one result + one acknowledge packet per token instead of k of each.
// This bench sweeps the two lowerings over the workloads where chains
// dominate — the §9 long-FIFO recurrence (bench_claim_longfifo's shape) and
// the Fig. 6 smoothing forall — on the event-driven scheduler, timing the
// two lowerings together with bench::timeInterleaved.  A row's speedup is
// the median of the per-round expanded / fused time ratios.  Gates: every
// row's fused run completes with the expanded run's outputs and output
// times, and the deep recurrence at m = 4096 reaches a median >= 1.5x.
// Exits 1 when a gate fails.
#include "bench_common.hpp"
#include "opt/fuse.hpp"

namespace {

using namespace valpipe;

/// The 4-operator recurrence of bench_claim_longfifo; under the LongFifo
/// scheme its feedback cycle is padded with a deep FIFO (2B stages for B
/// interleaved instances).
std::string deepRecurrence(std::int64_t m) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function deep(A, B: array[real] [1, m] returns array[real])
  for i : integer := 1; T : array[real] := [0: 0.2]
  do let P : real := (T[i-1] * A[i] + B[i]) * 0.5
     in if i < m + 1 then iter T := T[i: P]; i := i + 1 enditer
        else T endif
     endlet
  endfor
endfun
)";
}

/// The Fig. 6 boundary-guarded smoothing forall: its selection skews are
/// realized as (shallow) balancing FIFOs.
std::string smoothForall(std::int64_t m) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function f6(B, C: array[real] [0, m+1] returns array[real])
  forall i in [0, m+1]
    P : real := if (i = 0) | (i = m+1) then C[i]
                else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
  construct B[i] * (P * P)
  endall
endfun
)";
}

struct Row {
  std::string workload;
  std::int64_t m = 0;
  std::size_t cellsExpanded = 0;
  std::size_t cellsFused = 0;
  std::size_t chains = 0;
  std::size_t absorbed = 0;
  double msExpanded = 0.0;  ///< median over the rounds
  double msFused = 0.0;
  bench::Spread speedup;
  std::uint64_t packetsExpanded = 0;  ///< result + ack packets
  std::uint64_t packetsFused = 0;
  bool identical = false;
};

Row sweep(const std::string& workload, const std::string& src,
          std::int64_t m, const core::CompileOptions& copts) {
  const auto prog = core::compileSource(src, copts);
  const auto in = bench::randomInputs(prog, 71, -0.8, 0.8);
  const dfg::Graph expanded = dfg::expandFifos(prog.graph);
  opt::FusionStats fs;
  const dfg::Graph fused = opt::fuseFifos(prog.graph, &fs);

  machine::RunOptions opts;
  opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
  machine::MachineResult e, f;
  const bench::Timing t =
      bench::timeInterleaved({bench::simulateVariant(expanded, in, opts, e),
                              bench::simulateVariant(fused, in, opts, f)});

  Row row;
  row.workload = workload;
  row.m = m;
  row.cellsExpanded = expanded.size();
  row.cellsFused = fused.size();
  row.chains = fs.chainsFused;
  row.absorbed = fs.cellsAbsorbed;
  row.msExpanded = t.seconds(0) * 1e3;
  row.msFused = t.seconds(1) * 1e3;
  row.speedup = t.ratio(0, 1);
  row.packetsExpanded = e.packets.resultPackets + e.packets.ackPackets;
  row.packetsFused = f.packets.resultPackets + f.packets.ackPackets;
  row.identical = e.completed && f.completed && f.outputs == e.outputs &&
                  f.outputTimes == e.outputTimes;
  return row;
}

core::CompileOptions recurrenceOpts() {
  core::CompileOptions o;
  o.forIterScheme = core::ForIterScheme::LongFifo;
  o.interleave = 64;  // 128-stage cycle: one deep FIFO dominates the graph
  return o;
}

}  // namespace

int main() {
  using namespace valpipe;
  bench::banner(
      "P5 — FIFO fusion",
      "composite ring-buffer FIFO cells vs expanded Id chains "
      "(event-driven scheduler, unit profile)",
      "identical outputs and output times; >= 1.5x throughput on the deep "
      "recurrence at m = 4096");

  bench::BenchJson json("fifo_fusion");
  TextTable table({"workload", "m", "cells exp", "cells fused", "packets exp",
                   "packets fused", "ms exp", "ms fused", "speedup",
                   "identical"});
  bench::Spread headline;
  bool allIdentical = true;
  for (const std::int64_t m : {64, 256, 1024, 4096}) {
    for (int w = 0; w < 2; ++w) {
      const bool rec = w == 0;
      const Row row =
          rec ? sweep("deep-recurrence", deepRecurrence(m), m,
                      recurrenceOpts())
              : sweep("smooth-forall", smoothForall(m), m,
                      core::CompileOptions{});
      table.addRow({row.workload, std::to_string(row.m),
                    std::to_string(row.cellsExpanded),
                    std::to_string(row.cellsFused),
                    std::to_string(row.packetsExpanded),
                    std::to_string(row.packetsFused),
                    fmtDouble(row.msExpanded, 2), fmtDouble(row.msFused, 2),
                    fmtDouble(row.speedup.median, 2),
                    row.identical ? "yes" : "NO"});
      bench::JsonObj o;
      o.add("workload", row.workload)
          .add("m", row.m)
          .add("cells_expanded", static_cast<std::int64_t>(row.cellsExpanded))
          .add("cells_fused", static_cast<std::int64_t>(row.cellsFused))
          .add("chains_fused", static_cast<std::int64_t>(row.chains))
          .add("cells_absorbed", static_cast<std::int64_t>(row.absorbed))
          .add("packets_expanded", row.packetsExpanded)
          .add("packets_fused", row.packetsFused)
          .add("ms_expanded", row.msExpanded)
          .add("ms_fused", row.msFused)
          .add("speedup", row.speedup)
          .add("identical", row.identical);
      json.addRow(o);
      allIdentical = allIdentical && row.identical;
      if (rec && m == 4096) headline = row.speedup;
    }
  }
  std::printf("%s\n", table.str().c_str());

  const bool pass = allIdentical && headline.median >= 1.5;
  json.meta("speedup_at_m4096", headline.median);
  json.meta("all_identical", allIdentical);
  json.meta("pass", pass);
  json.write();
  std::printf("deep recurrence @ m=4096: %.2fx (%.2f-%.2f over %d rounds) "
              "%s (bound 1.5x); outputs %s\n",
              headline.median, headline.min, headline.max, bench::kRounds,
              pass ? "PASS" : "FAIL",
              allIdentical ? "bit-identical" : "MISMATCH");
  return pass ? 0 : 1;
}

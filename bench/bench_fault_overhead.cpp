// FO — fault/guard overhead: cost of the resilience layer on the hot path.
//
// The injector and the guards hang off RunOptions; when both are off every
// hook is a single never-taken branch, so the engines must run at
// the same cell-cycles-per-second as before the layer existed.  This bench
// measures the F6 forall workload on the event-driven scheduler in four
// modes — off, guards on, timing faults on, both on — and accepts when the
// off mode keeps the engine-scaling criterion (event-driven >= 2x the
// reference stepper) and the guarded mode stays within 1.5x of off.
#include "bench_common.hpp"

#include <chrono>

#include "fault/plan.hpp"

namespace {

using namespace valpipe;
using machine::SchedulerKind;

std::string forallSource(std::int64_t m) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function ex1(B, C: array[real] [0, m+1] returns array[real])
  forall i in [0, m+1]
    P : real := if (i = 0) | (i = m+1) then C[i]
                else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
  construct B[i] * (P * P)
  endall
endfun
)";
}

struct Workload {
  std::int64_t m = 0;
  dfg::Graph lowered;
  run::StreamMap inputs;
  machine::RunOptions opts;
};

Workload f6Workload(std::int64_t m) {
  const auto prog = core::compileSource(forallSource(m));
  Workload w;
  w.m = m;
  w.lowered = dfg::isLowered(prog.graph) ? prog.graph
                                         : dfg::expandFifos(prog.graph);
  w.inputs = bench::randomInputs(prog, 5);
  w.opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
  return w;
}

struct Timed {
  machine::MachineResult res;
  double seconds = 0.0;
};

Timed runTimed(const Workload& w, const machine::RunOptions& opts,
               int reps = 3) {
  Timed best;
  best.seconds = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    machine::MachineResult res = machine::simulate(
        w.lowered, machine::MachineConfig::unit(), w.inputs, opts);
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (s < best.seconds) best = {std::move(res), s};
  }
  return best;
}

double mccs(const Workload& w, const Timed& t) {
  return static_cast<double>(w.lowered.size()) *
         static_cast<double>(t.res.cycles) / t.seconds / 1e6;
}

fault::Plan timingPlan() {
  fault::Plan plan;
  plan.seed = 17;
  plan.latencyJitterMax = 2;
  plan.deliveryDelayMax = 1;
  return plan;
}

void BM_OffVsGuarded(benchmark::State& state, bool guarded) {
  const Workload w = f6Workload(state.range(0));
  machine::RunOptions opts = w.opts;
  opts.scheduler = SchedulerKind::EventDriven;
  opts.guards = guarded;
  for (auto _ : state) {
    auto t = runTimed(w, opts, 1);
    benchmark::DoNotOptimize(t.res.cycles);
  }
}
void BM_Off(benchmark::State& s) { BM_OffVsGuarded(s, false); }
void BM_Guarded(benchmark::State& s) { BM_OffVsGuarded(s, true); }
BENCHMARK(BM_Off)->Arg(1024)->Arg(4096);
BENCHMARK(BM_Guarded)->Arg(1024)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  using namespace valpipe;
  bench::banner(
      "FO (fault/guard overhead)",
      "resilience layer off vs guards on vs timing faults on, event-driven",
      "null faults+guards cost nothing: off keeps event-driven >= 2x the "
      "reference stepper; guards stay within 1.5x of off");

  const fault::Plan plan = timingPlan();

  bench::BenchJson json("fault_overhead");
  json.meta("workload", "F6 forall, event-driven scheduler, unit profile");
  TextTable table({"m", "cells", "off Mcc/s", "guards Mcc/s", "faults Mcc/s",
                   "both Mcc/s", "guards/off", "ref Mcc/s", "off/ref",
                   "same"});
  double offOverRefAtMax = 0.0, guardsOverOffAtMax = 0.0;
  for (std::int64_t m : {std::int64_t(256), std::int64_t(1024),
                         std::int64_t(4096)}) {
    const Workload w = f6Workload(m);

    machine::RunOptions off = w.opts;
    off.scheduler = SchedulerKind::EventDriven;
    machine::RunOptions guards = off;
    guards.guards = true;
    machine::RunOptions faults = off;
    faults.faults = &plan;
    machine::RunOptions both = guards;
    both.faults = &plan;
    machine::RunOptions ref = w.opts;
    ref.scheduler = SchedulerKind::Reference;

    // Warm up caches, branch predictors, and the allocator before the first
    // timed mode: without this the first row (smallest m) charges the cold
    // start to whichever mode runs first and the ratios come out inverted.
    runTimed(w, off, 1);

    const Timed tOff = runTimed(w, off);
    const Timed tGuards = runTimed(w, guards);
    const Timed tFaults = runTimed(w, faults);
    const Timed tBoth = runTimed(w, both);
    const Timed tRef = runTimed(w, ref);

    // Resilience modes must not change what the run computes: outputs and
    // firing counts stay bit-identical in all five runs (the determinacy
    // contract tests/test_fault_injection.cpp proves exhaustively).
    const bool same = tOff.res.outputs == tRef.res.outputs &&
                      tGuards.res.outputs == tRef.res.outputs &&
                      tFaults.res.outputs == tRef.res.outputs &&
                      tBoth.res.outputs == tRef.res.outputs &&
                      tOff.res.totalFirings == tRef.res.totalFirings &&
                      tFaults.res.totalFirings == tRef.res.totalFirings;

    const double guardsOverOff = mccs(w, tOff) / mccs(w, tGuards);
    const double offOverRef = mccs(w, tOff) / mccs(w, tRef);
    if (m == 4096) {
      offOverRefAtMax = offOverRef;
      guardsOverOffAtMax = guardsOverOff;
    }
    table.addRow({std::to_string(m), std::to_string(w.lowered.size()),
                  fmtDouble(mccs(w, tOff), 3), fmtDouble(mccs(w, tGuards), 3),
                  fmtDouble(mccs(w, tFaults), 3), fmtDouble(mccs(w, tBoth), 3),
                  fmtDouble(guardsOverOff, 2), fmtDouble(mccs(w, tRef), 3),
                  fmtDouble(offOverRef, 2), same ? "yes" : "NO"});
    bench::JsonObj row;
    row.add("m", m)
        .add("cells", static_cast<std::int64_t>(w.lowered.size()))
        .add("off_mccs", mccs(w, tOff))
        .add("guards_mccs", mccs(w, tGuards))
        .add("faults_mccs", mccs(w, tFaults))
        .add("both_mccs", mccs(w, tBoth))
        .add("guards_over_off", guardsOverOff)
        .add("off_over_ref", offOverRef)
        .add("identical", same);
    json.addRow(row);
  }
  std::printf("%s\n", table.str().c_str());
  const bool pass = offOverRefAtMax >= 2.0 && guardsOverOffAtMax <= 1.5;
  std::printf("acceptance: m=4096 off/ref %.2fx (target >= 2x), guards cost "
              "%.2fx of off (target <= 1.5x) %s\n\n",
              offOverRefAtMax, guardsOverOffAtMax, pass ? "PASS" : "FAIL");
  json.meta("off_over_ref_m4096", offOverRefAtMax);
  json.meta("guards_over_off_m4096", guardsOverOffAtMax);
  json.write();
  return bench::runTimings(argc, argv);
}

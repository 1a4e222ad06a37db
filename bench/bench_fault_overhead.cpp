// FO — fault/guard overhead: cost of the resilience layer on the hot path.
//
// The injector and the guards hang off RunOptions; when both are off every
// hook is a single never-taken branch, so the engines must run at
// the same cell-cycles-per-second as before the layer existed.  This bench
// measures the F6 forall workload on the event-driven scheduler in four
// modes — off, guards on, timing faults on, both on — plus the reference
// stepper, all five timed together by bench::timeInterleaved.  Ratios are
// medians of per-round time ratios.  Gates at m = 4096: off/ref >= 2x (the
// engine-scaling criterion) and guards/off <= 1.5x; and at every m, off,
// guards and ref bit-identical (bench::identical), and the timing-fault
// runs matching off in outputs, firings and packet counters
// (bench::sameWork, the DESIGN §9 contract).  Exits 1 when a gate fails.
#include "bench_common.hpp"

#include "fault/plan.hpp"

namespace {

using namespace valpipe;
using machine::SchedulerKind;

struct Workload {
  std::int64_t m = 0;
  dfg::Graph lowered;
  run::StreamMap inputs;
  machine::RunOptions opts;
};

Workload f6Workload(std::int64_t m) {
  const auto prog = core::compileSource(bench::example1Source(m));
  Workload w;
  w.m = m;
  w.lowered = dfg::isLowered(prog.graph) ? prog.graph
                                         : dfg::expandFifos(prog.graph);
  w.inputs = bench::randomInputs(prog, 5);
  w.opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
  return w;
}

double mccs(const Workload& w, const machine::MachineResult& r,
            double seconds) {
  return static_cast<double>(w.lowered.size()) *
         static_cast<double>(r.cycles) / seconds / 1e6;
}

fault::Plan timingPlan() {
  fault::Plan plan;
  plan.seed = 17;
  plan.latencyJitterMax = 2;
  plan.deliveryDelayMax = 1;
  return plan;
}

}  // namespace

int main() {
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
  bench::Spread offOverRefAtMax, guardsOverOffAtMax;
  bool allSame = true;
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

    machine::MachineResult rOff, rGuards, rFaults, rBoth, rRef;
    const bench::Timing t = bench::timeInterleaved(
        {bench::simulateVariant(w.lowered, w.inputs, off, rOff),
         bench::simulateVariant(w.lowered, w.inputs, guards, rGuards),
         bench::simulateVariant(w.lowered, w.inputs, faults, rFaults),
         bench::simulateVariant(w.lowered, w.inputs, both, rBoth),
         bench::simulateVariant(w.lowered, w.inputs, ref, rRef)});

    // Resilience modes must not change what the run computes (the
    // determinacy contract tests/test_fault_injection.cpp proves
    // exhaustively).
    const bool same = bench::identical(rOff, rRef) &&
                      bench::identical(rGuards, rRef) &&
                      bench::sameWork(rFaults, rOff) &&
                      bench::sameWork(rBoth, rOff);
    allSame = allSame && same;

    const bench::Spread guardsOverOff = t.ratio(1, 0);
    const bench::Spread offOverRef = t.ratio(4, 0);
    if (m == 4096) {
      offOverRefAtMax = offOverRef;
      guardsOverOffAtMax = guardsOverOff;
    }
    const double mOff = mccs(w, rOff, t.seconds(0));
    const double mGuards = mccs(w, rGuards, t.seconds(1));
    const double mFaults = mccs(w, rFaults, t.seconds(2));
    const double mBoth = mccs(w, rBoth, t.seconds(3));
    const double mRef = mccs(w, rRef, t.seconds(4));
    table.addRow({std::to_string(m), std::to_string(w.lowered.size()),
                  fmtDouble(mOff, 3), fmtDouble(mGuards, 3),
                  fmtDouble(mFaults, 3), fmtDouble(mBoth, 3),
                  fmtDouble(guardsOverOff.median, 2), fmtDouble(mRef, 3),
                  fmtDouble(offOverRef.median, 2), same ? "yes" : "NO"});
    bench::JsonObj row;
    row.add("m", m)
        .add("cells", static_cast<std::int64_t>(w.lowered.size()))
        .add("off_mccs", mOff)
        .add("guards_mccs", mGuards)
        .add("faults_mccs", mFaults)
        .add("both_mccs", mBoth)
        .add("ref_mccs", mRef)
        .add("guards_over_off", guardsOverOff)
        .add("off_over_ref", offOverRef)
        .add("identical", same);
    json.addRow(row);
  }
  std::printf("%s\n", table.str().c_str());
  const bool pass = allSame && offOverRefAtMax.median >= 2.0 &&
                    guardsOverOffAtMax.median <= 1.5;
  std::printf("acceptance: every m identical (%s); m=4096 off/ref %.2fx "
              "(target >= 2x), guards cost %.2fx of off (target <= 1.5x), "
              "medians of %d rounds %s\n\n",
              allSame ? "yes" : "NO", offOverRefAtMax.median,
              guardsOverOffAtMax.median, bench::kRounds,
              pass ? "PASS" : "FAIL");
  json.meta("off_over_ref_m4096", offOverRefAtMax.median);
  json.meta("guards_over_off_m4096", guardsOverOffAtMax.median);
  json.meta("all_identical", allSame);
  json.meta("pass", pass);
  json.write();
  return pass ? 0 : 1;
}

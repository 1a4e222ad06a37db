// RC — recovery economics: checkpoint overhead and recovery latency.
//
// Snapshots hang off RunOptions by pointer exactly like the fault and guard
// hooks, so a null checkpoint log must cost nothing and a periodic one must
// cost little: the engine serializes nothing, it copies live slot/cell state
// at an instruction-time boundary.  This bench measures the F6 forall
// workload on the event-driven scheduler three ways:
//
//   * baseline vs checkpointed (cadence m/8 instruction times) — the
//     acceptance gate is checkpointed within 1.10x of baseline at m=4096;
//   * restore-and-resume from the mid-run snapshot vs a full rerun — the
//     point of checkpoints is that recovery replays HALF the work, not all
//     of it;
//   * supervised recovery wall-clock under a destructive drop plan — the
//     end-to-end price of "fault happened, retry from the last clean
//     snapshot, finish bit-identical".
//
// The four modes are timed together by bench::timeInterleaved; ckpt/base is
// the median of the per-round checkpointed / baseline time ratios.  Gates:
// that median <= 1.10x at m = 4096; the checkpointed and resumed runs
// bit-identical to the baseline (bench::identical); the supervised run's
// outputs equal to the baseline's (the DESIGN §13 contract).  Exits 1 when a
// gate fails.
#include "bench_common.hpp"

#include "fault/plan.hpp"
#include "recover/snapshot.hpp"
#include "recover/supervisor.hpp"

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
  w.opts.scheduler = SchedulerKind::EventDriven;
  return w;
}

double mccs(const Workload& w, const machine::MachineResult& r,
            double seconds) {
  return static_cast<double>(w.lowered.size()) *
         static_cast<double>(r.cycles) / seconds / 1e6;
}

}  // namespace

int main() {
  using namespace valpipe;
  bench::banner(
      "RC (recovery economics)",
      "checkpoint overhead, restore-resume latency, supervised recovery",
      "periodic snapshots at cadence m/8 cost <= 1.10x of baseline at "
      "m=4096; resuming from the mid-run snapshot beats a full rerun");

  bench::BenchJson json("recover");
  json.meta("workload", "F6 forall, event-driven scheduler, unit profile");
  TextTable table({"m", "cells", "base Mcc/s", "ckpt Mcc/s", "ckpt/base",
                   "snaps", "bytes/snap", "full ms", "resume ms",
                   "recover ms", "attempts", "same"});
  bench::Spread overheadAtMax;
  bool allSame = true;
  for (std::int64_t m : {std::int64_t(1024), std::int64_t(4096)}) {
    const Workload w = f6Workload(m);
    const std::int64_t every = std::max<std::int64_t>(1, m / 8);

    // Timed overhead uses the production recovery configuration: a rolling
    // log that retains last + lastClean, exactly what the supervisor and
    // valc --checkpoint-every run with.  (keepAll retains every snapshot —
    // a debugging mode whose allocation churn is not the recovery price.)
    recover::CheckpointLog log;
    machine::RunOptions ckpt = w.opts;
    ckpt.checkpointEvery = every;
    ckpt.checkpoints = &log;

    // Restore-and-resume from the middle snapshot vs the full rerun; the
    // mid-run snapshot comes from one untimed keepAll pass.
    recover::CheckpointLog allLog;
    allLog.keepAll = true;
    machine::RunOptions keepAll = ckpt;
    keepAll.checkpoints = &allLog;
    machine::simulate(w.lowered, machine::MachineConfig::unit(), w.inputs,
                      keepAll);
    const auto& snaps = allLog.all();
    const recover::Snapshot& mid = snaps[snaps.size() / 2];
    const std::size_t snapBytes = recover::serialize(mid).size();
    machine::RunOptions resume = w.opts;
    resume.restoreFrom = &mid;

    // Supervised recovery: a destructive drop plan fails the run mid-flight;
    // the supervisor restores the last clean snapshot, strips the
    // destructive class, and finishes bit-identical.  Wall-clock includes
    // the failed attempt and the retry.
    fault::Plan drops;
    drops.seed = 23;
    drops.dropResultPermille = 30;
    machine::RunOptions faulted = w.opts;
    faulted.faults = &drops;
    faulted.guards = true;
    faulted.watchdog = 2000;
    faulted.maxInstructionTimes = 10'000'000;
    recover::RetryPolicy policy;
    policy.checkpointEvery = every;
    policy.sleepBetweenRetries = false;

    machine::MachineResult rBase, rCkpt, rResume, rRec;
    recover::Report report;
    const bench::Timing t = bench::timeInterleaved(
        {bench::simulateVariant(w.lowered, w.inputs, w.opts, rBase),
         bench::simulateVariant(w.lowered, w.inputs, ckpt, rCkpt),
         bench::simulateVariant(w.lowered, w.inputs, resume, rResume),
         {[&] {
            rRec = recover::superviseRun(
                w.lowered, nullptr, machine::MachineConfig::unit(), w.inputs,
                faulted, policy, &report);
          },
          [&] {
            rRec = machine::MachineResult{};
            report = recover::Report{};
          }}});
    const bool same = bench::identical(rCkpt, rBase) &&
                      bench::identical(rResume, rBase) &&
                      rRec.outputs == rBase.outputs;
    allSame = allSame && same;

    const bench::Spread overhead = t.ratio(1, 0);
    if (m == 4096) overheadAtMax = overhead;
    table.addRow({std::to_string(m), std::to_string(w.lowered.size()),
                  fmtDouble(mccs(w, rBase, t.seconds(0)), 3),
                  fmtDouble(mccs(w, rCkpt, t.seconds(1)), 3),
                  fmtDouble(overhead.median, 3), std::to_string(snaps.size()),
                  std::to_string(snapBytes), fmtDouble(t.seconds(0) * 1e3, 2),
                  fmtDouble(t.seconds(2) * 1e3, 2),
                  fmtDouble(t.seconds(3) * 1e3, 2),
                  std::to_string(report.attempts.size()),
                  same ? "yes" : "NO"});
    bench::JsonObj row;
    row.add("m", m)
        .add("cells", static_cast<std::int64_t>(w.lowered.size()))
        .add("checkpoint_every", every)
        .add("base_mccs", mccs(w, rBase, t.seconds(0)))
        .add("ckpt_mccs", mccs(w, rCkpt, t.seconds(1)))
        .add("ckpt_over_base", overhead)
        .add("snapshots", static_cast<std::int64_t>(snaps.size()))
        .add("bytes_per_snapshot", static_cast<std::int64_t>(snapBytes))
        .add("full_seconds", t.seconds(0))
        .add("resume_seconds", t.seconds(2))
        .add("recover_seconds", t.seconds(3))
        .add("recover_attempts",
             static_cast<std::int64_t>(report.attempts.size()))
        .add("identical", same);
    json.addRow(row);
  }
  std::printf("%s\n", table.str().c_str());
  const bool pass = allSame && overheadAtMax.median <= 1.10;
  std::printf("acceptance: every m identical (%s); m=4096 checkpointing "
              "costs %.3fx of baseline (%.3f-%.3f over %d rounds; target "
              "<= 1.10x) %s\n\n",
              allSame ? "yes" : "NO", overheadAtMax.median, overheadAtMax.min,
              overheadAtMax.max, bench::kRounds, pass ? "PASS" : "FAIL");
  json.meta("ckpt_over_base_m4096", overheadAtMax.median);
  json.meta("all_identical", allSame);
  json.meta("pass", pass);
  json.write();
  return pass ? 0 : 1;
}

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
#include "bench_common.hpp"

#include <chrono>

#include "fault/plan.hpp"
#include "recover/snapshot.hpp"
#include "recover/supervisor.hpp"

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
  w.opts.scheduler = SchedulerKind::EventDriven;
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

void BM_Checkpointed(benchmark::State& state, bool checkpoints) {
  const Workload w = f6Workload(state.range(0));
  machine::RunOptions opts = w.opts;
  recover::CheckpointLog log;
  if (checkpoints) {
    opts.checkpointEvery = std::max<std::int64_t>(1, w.m / 8);
    opts.checkpoints = &log;
  }
  for (auto _ : state) {
    auto t = runTimed(w, opts, 1);
    benchmark::DoNotOptimize(t.res.cycles);
  }
}
void BM_Base(benchmark::State& s) { BM_Checkpointed(s, false); }
void BM_Ckpt(benchmark::State& s) { BM_Checkpointed(s, true); }
BENCHMARK(BM_Base)->Arg(1024)->Arg(4096);
BENCHMARK(BM_Ckpt)->Arg(1024)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
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
                   "recover ms", "attempts"});
  double overheadAtMax = 0.0;
  for (std::int64_t m : {std::int64_t(1024), std::int64_t(4096)}) {
    const Workload w = f6Workload(m);
    const std::int64_t every = std::max<std::int64_t>(1, m / 8);

    machine::RunOptions base = w.opts;
    // Cold-start warmup: the first timed mode must not pay the allocator
    // and icache bill for everyone.
    runTimed(w, base, 1);
    const Timed tBase = runTimed(w, base);

    // Timed overhead uses the production recovery configuration: a rolling
    // log that retains last + lastClean, exactly what the supervisor and
    // valc --checkpoint-every run with.  (keepAll retains every snapshot —
    // a debugging mode whose allocation churn is not the recovery price.)
    recover::CheckpointLog log;
    machine::RunOptions ckpt = w.opts;
    ckpt.checkpointEvery = every;
    ckpt.checkpoints = &log;
    const Timed tCkpt = runTimed(w, ckpt);

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
    const Timed tResume = runTimed(w, resume);

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
    recover::Report report;
    const auto r0 = std::chrono::steady_clock::now();
    const machine::MachineResult rec = recover::superviseRun(
        w.lowered, nullptr, machine::MachineConfig::unit(), w.inputs, faulted,
        policy, &report);
    const double recoverSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - r0)
            .count();
    const bool same = tCkpt.res.outputs == tBase.res.outputs &&
                      tResume.res.outputs == tBase.res.outputs &&
                      rec.outputs == tBase.res.outputs;

    const double overhead = mccs(w, tBase) / mccs(w, tCkpt);
    if (m == 4096) overheadAtMax = overhead;
    table.addRow({std::to_string(m), std::to_string(w.lowered.size()),
                  fmtDouble(mccs(w, tBase), 3), fmtDouble(mccs(w, tCkpt), 3),
                  fmtDouble(overhead, 3), std::to_string(snaps.size()),
                  std::to_string(snapBytes),
                  fmtDouble(tBase.seconds * 1e3, 2),
                  fmtDouble(tResume.seconds * 1e3, 2),
                  fmtDouble(recoverSec * 1e3, 2),
                  std::to_string(report.attempts.size())});
    if (!same)
      std::printf("WARNING: m=%lld outputs diverged across modes\n",
                  static_cast<long long>(m));
    bench::JsonObj row;
    row.add("m", m)
        .add("cells", static_cast<std::int64_t>(w.lowered.size()))
        .add("checkpoint_every", every)
        .add("base_mccs", mccs(w, tBase))
        .add("ckpt_mccs", mccs(w, tCkpt))
        .add("ckpt_over_base", overhead)
        .add("snapshots", static_cast<std::int64_t>(snaps.size()))
        .add("bytes_per_snapshot", static_cast<std::int64_t>(snapBytes))
        .add("full_seconds", tBase.seconds)
        .add("resume_seconds", tResume.seconds)
        .add("recover_seconds", recoverSec)
        .add("recover_attempts",
             static_cast<std::int64_t>(report.attempts.size()))
        .add("identical", same);
    json.addRow(row);
  }
  std::printf("%s\n", table.str().c_str());
  const bool pass = overheadAtMax <= 1.10;
  std::printf("acceptance: m=4096 checkpointing costs %.3fx of baseline "
              "(target <= 1.10x) %s\n\n",
              overheadAtMax, pass ? "PASS" : "FAIL");
  json.meta("ckpt_over_base_m4096", overheadAtMax);
  json.write();
  return bench::runTimings(argc, argv);
}

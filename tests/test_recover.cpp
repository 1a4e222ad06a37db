// Checkpoint/restore and supervised re-execution (src/recover/).
//
// The contracts under test:
//
//   * observation freedom — running with periodic checkpointing enabled is
//     invisible: every MachineResult field stays bit-identical;
//   * exact resume — run to a mid-run boundary, snapshot, serialize,
//     deserialize, restore into a fresh engine and run to the end: the
//     result is field-identical to the uninterrupted run, on every scheduler
//     and both FIFO lowerings (expanded chains and fused composites),
//     including checkpoints the Compiled scheduler took after a jump;
//   * recovery — under each destructive fault class the supervisor restores
//     the last clean snapshot (or restarts), strips the destructive classes,
//     and finishes with a result fully bit-identical to the fault-free run,
//     zero destructive fault counters included;
//   * deadlines — a wall-clock budget aborts with run::DeadlineError, and
//     the supervisor's budget growth turns that into a completed retry;
//   * hostile bytes — truncated or corrupted snapshot bytes throw
//     recover::SnapshotError, never crash.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "dfg/lower.hpp"
#include "fault/plan.hpp"
#include "generators.hpp"
#include "guard/guard.hpp"
#include "machine/engine.hpp"
#include "opt/fuse.hpp"
#include "recover/snapshot.hpp"
#include "recover/supervisor.hpp"
#include "support/check.hpp"
#include "testing.hpp"
#include "val/eval.hpp"

namespace valpipe {
namespace {

using machine::MachineConfig;
using machine::MachineResult;
using machine::RunOptions;
using machine::SchedulerKind;
using recover::CheckpointLog;
using recover::Snapshot;
using testing::GenOptions;
using testing::ProgramGen;
using testing::randomArray;

constexpr SchedulerKind kAllSchedulers[] = {
    SchedulerKind::Reference,
    SchedulerKind::EventDriven,
    SchedulerKind::Compiled,
};

const char* schedName(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::Reference: return "reference";
    case SchedulerKind::EventDriven: return "event-driven";
    case SchedulerKind::Compiled: return "compiled";
  }
  return "?";
}

struct Workload {
  core::CompiledProgram prog;
  dfg::Graph expanded;  ///< Fifo chains expanded into Id stages
  run::StreamMap streams;
};

Workload makeWorkload(int p) {
  GenOptions gopts;
  gopts.blocks = 1 + p % 3;
  gopts.m = 8 + p % 5;
  ProgramGen gen(static_cast<unsigned>(p) * 337 + 17, gopts);
  Workload w;
  val::Module mod = core::frontend(gen.module());
  val::ArrayMap in;
  unsigned k = 0;
  for (const val::Param& prm : mod.params)
    in[prm.name] = randomArray(*prm.type.range,
                               static_cast<unsigned>(p) + 100 * k++, 0.0, 1.0);
  w.prog = core::compile(mod);
  w.expanded = dfg::expandFifos(w.prog.graph);
  w.streams = testing::inputsFor(w.prog, in);
  return w;
}

RunOptions baseOpts(const Workload& w, SchedulerKind k, int waves = 1) {
  RunOptions opts;
  opts.waves = waves;
  opts.expectedOutputs[w.prog.outputName] =
      w.prog.expectedOutputPerWave() * waves;
  opts.scheduler = k;
  opts.maxInstructionTimes = 500'000;
  return opts;
}

// --- exact resume across every scheduler and both lowerings ---------------

TEST(RecoverSnapshot, RestoreResumesBitIdentically) {
  for (int p = 0; p < 3; ++p) {
    const Workload w = makeWorkload(p);
    for (bool fused : {false, true}) {
      const dfg::Graph& g = fused ? w.prog.graph : w.expanded;
      for (SchedulerKind k : kAllSchedulers) {
        const std::string what = std::string(schedName(k)) +
                                 (fused ? "/fused" : "/expanded") +
                                 " p=" + std::to_string(p);
        const MachineResult ref =
            machine::simulate(g, MachineConfig::unit(), w.streams,
                              baseOpts(w, k));
        ASSERT_TRUE(ref.completed) << what;
        ASSERT_GT(ref.cycles, 8) << what;

        // Checkpointing is observation only.
        CheckpointLog log;
        log.keepAll = true;
        RunOptions copts = baseOpts(w, k);
        copts.checkpointEvery = std::max<std::int64_t>(ref.cycles / 4, 1);
        copts.checkpoints = &log;
        const MachineResult observed =
            machine::simulate(g, MachineConfig::unit(), w.streams, copts);
        testing::expectIdentical(observed, ref, what + " (checkpointed)");
        ASSERT_GE(log.taken(), 2u) << what;

        // Pick a mid-run boundary, push it through bytes, resume from it.
        const Snapshot& mid = log.all()[log.all().size() / 2];
        EXPECT_TRUE(mid.clean) << what;
        const std::string bytes = recover::serialize(mid);
        const Snapshot back = recover::deserialize(bytes);
        EXPECT_EQ(recover::serialize(back), bytes)
            << what << ": serialize/deserialize round trip";

        RunOptions ropts = baseOpts(w, k);
        ropts.restoreFrom = &back;
        const MachineResult resumed =
            machine::simulate(g, MachineConfig::unit(), w.streams, ropts);
        testing::expectIdentical(resumed, ref, what + " (resumed)");
      }
    }
  }
}

// A Compiled run's jump shifts the whole state in one step and rebuilds the
// wheel from it; a checkpoint captured at or after the jump must resume to
// the uninterrupted run's result on every scheduler.
TEST(RecoverSnapshot, CompiledJumpCheckpointsResumeOnEveryScheduler) {
  const int m = 512;
  // A straight-line forall takes the steady-loop value path; fig6, fig7
  // Todd and fig8 companion replay their steady window.
  const std::string straightLine = "const m = " + std::to_string(m) + R"(
function f(A, B: array[real] [1, m] returns array[real])
  forall i in [1, m]
  construct 0.5 * (A[i] + B[i]) * A[i]
  endall
endfun
)";
  std::vector<testing::FigureProgram> progs;
  progs.push_back({"straight-line", core::compileSource(straightLine)});
  for (testing::FigureProgram& fp : testing::replayFigures(m))
    if (fp.name != "fig3" && fp.name != "fig4") progs.push_back(std::move(fp));

  for (const testing::FigureProgram& fp : progs) {
    const dfg::Graph g = opt::fuseFifos(fp.prog.graph);
    const run::StreamMap in = testing::figureInputs(fp.prog, 61);
    for (const bool hardware : {false, true}) {
      const MachineConfig cfg =
          hardware ? MachineConfig::hardware() : MachineConfig::unit();
      const std::string what = fp.name + (hardware ? " hardware" : " unit");
      RunOptions opts;
      opts.expectedOutputs[fp.prog.outputName] =
          fp.prog.expectedOutputPerWave();
      opts.scheduler = SchedulerKind::Compiled;
      const MachineResult ref = machine::simulate(g, cfg, in, opts);
      ASSERT_TRUE(ref.completed) << what << ": " << ref.note;

      CheckpointLog log;
      log.keepAll = true;
      RunOptions copts = opts;
      copts.checkpointEvery = 16;
      copts.checkpoints = &log;
      const MachineResult observed = machine::simulate(g, cfg, in, copts);
      testing::expectIdentical(observed, ref, what + " (checkpointed)");
      const MachineResult::CompiledInfo& info = observed.compiled;
      ASSERT_TRUE(info.fastForwarded) << what << ": " << info.reason;

      // A jump moves the clock by its skipped instruction times in one step,
      // and the checkpoint then due is taken at its target: find the first
      // snapshot at least one jump's length past its predecessor.
      const std::vector<Snapshot>& all = log.all();
      const std::int64_t jumpLength = info.cyclesSkipped / info.jumps;
      std::size_t first = 0;
      while (first < all.size() &&
             all[first].now - (first > 0 ? all[first - 1].now : 0) <
                 jumpLength)
        ++first;
      ASSERT_LT(first, all.size())
          << what << ": no checkpoint at or after the jump";

      for (std::size_t i = first; i < all.size(); ++i) {
        const Snapshot back = recover::deserialize(recover::serialize(all[i]));
        for (SchedulerKind k : kAllSchedulers) {
          RunOptions ropts = opts;
          ropts.scheduler = k;
          ropts.restoreFrom = &back;
          testing::expectIdentical(
              machine::simulate(g, cfg, in, ropts), ref,
              what + " resumed at t=" + std::to_string(all[i].now) + " on " +
                  schedName(k));
        }
      }
    }
  }
}

TEST(RecoverSnapshot, RestoreAtFinalBoundaryCompletesImmediately) {
  const Workload w = makeWorkload(1);
  for (SchedulerKind k : kAllSchedulers) {
    const MachineResult ref = machine::simulate(
        w.expanded, MachineConfig::unit(), w.streams, baseOpts(w, k));
    CheckpointLog log;
    log.keepAll = true;
    RunOptions copts = baseOpts(w, k);
    copts.checkpointEvery = 1;  // a checkpoint at every examined step
    copts.checkpoints = &log;
    machine::simulate(w.expanded, MachineConfig::unit(), w.streams, copts);
    // The last snapshot lies at (or just before) the completion boundary.
    ASSERT_NE(log.last(), nullptr);
    RunOptions ropts = baseOpts(w, k);
    ropts.restoreFrom = log.last();
    const MachineResult resumed =
        machine::simulate(w.expanded, MachineConfig::unit(), w.streams, ropts);
    testing::expectIdentical(resumed, ref,
                             std::string(schedName(k)) + " (final boundary)");
  }
}

TEST(RecoverSnapshot, FileRoundTrip) {
  const Workload w = makeWorkload(0);
  CheckpointLog log;
  RunOptions copts = baseOpts(w, SchedulerKind::EventDriven);
  copts.checkpointEvery = 16;
  copts.checkpoints = &log;
  const MachineResult ref =
      machine::simulate(w.expanded, MachineConfig::unit(), w.streams, copts);
  ASSERT_GT(log.taken(), 0u);
  const std::string path =
      ::testing::TempDir() + "valpipe_recover_roundtrip.vpsn";
  recover::saveFile(*log.last(), path);
  const Snapshot loaded = recover::loadFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(recover::serialize(loaded), recover::serialize(*log.last()));
  RunOptions ropts = baseOpts(w, SchedulerKind::EventDriven);
  ropts.restoreFrom = &loaded;
  const MachineResult resumed =
      machine::simulate(w.expanded, MachineConfig::unit(), w.streams, ropts);
  testing::expectIdentical(resumed, ref, "file round trip");
}

// --- hostile bytes --------------------------------------------------------

TEST(RecoverSnapshot, HostileBytesThrowNotCrash) {
  const Workload w = makeWorkload(2);
  CheckpointLog log;
  RunOptions copts = baseOpts(w, SchedulerKind::EventDriven);
  copts.checkpointEvery = 8;
  copts.checkpoints = &log;
  machine::simulate(w.expanded, MachineConfig::unit(), w.streams, copts);
  ASSERT_GT(log.taken(), 0u);
  const std::string good = recover::serialize(*log.last());

  // Every truncation point must throw, not read past the end.
  for (std::size_t len : {std::size_t{0}, std::size_t{3}, std::size_t{9},
                          good.size() / 2, good.size() - 1})
    EXPECT_THROW(recover::deserialize(good.substr(0, len)),
                 recover::SnapshotError)
        << "truncated to " << len;

  // Wrong magic.
  std::string bad = good;
  bad[0] ^= 0x5a;
  EXPECT_THROW(recover::deserialize(bad), recover::SnapshotError);

  // Hostile interior counts: flipping high bytes of early length fields must
  // be rejected by the count validation, not allocate petabytes.  Whatever
  // the byte lands on, the outcome must be an exception or a well-formed
  // snapshot — never a crash.
  for (std::size_t at = 8; at < std::min<std::size_t>(good.size(), 64); ++at) {
    std::string mut = good;
    mut[at] = static_cast<char>(0xff);
    try {
      (void)recover::deserialize(mut);
    } catch (const recover::SnapshotError&) {
      // expected for most mutations
    }
  }

  // Lane packs: a zero-lane pack and one whose lanes mix kinds are malformed
  // snapshots, reported as SnapshotError like every other decode failure.
  Snapshot packed;
  packed.slots.emplace_back();
  packed.slots[0].v = Value::pack({Value(1.0), Value(2.0)});
  const std::string withPack = recover::serialize(packed);
  EXPECT_EQ(recover::deserialize(withPack).slots.at(0).v, packed.slots[0].v);
  // Kind byte 3 (pack), width 2, then kind byte 2 (real) of lane 0.
  const std::size_t at = withPack.find(std::string("\x03\x02\0\0\0\x02", 6));
  ASSERT_NE(at, std::string::npos);
  std::string empty = withPack;  // width 0, both lanes (9 bytes each) gone
  empty.replace(at + 1, 4 + 2 * 9, std::string(4, '\0'));
  EXPECT_THROW(recover::deserialize(empty), recover::SnapshotError);
  std::string mixed = withPack;  // lane 1's kind byte: real -> integer
  ASSERT_EQ(mixed[at + 5 + 9], '\x02');
  mixed[at + 5 + 9] = '\x01';
  EXPECT_THROW(recover::deserialize(mixed), recover::SnapshotError);
}

// --- CheckpointLog retention ---------------------------------------------

TEST(RecoverSnapshot, CheckpointLogKeepsLastClean) {
  CheckpointLog log;
  Snapshot a;
  a.now = 10;
  a.clean = true;
  Snapshot b;
  b.now = 20;
  b.clean = false;
  Snapshot c;
  c.now = 30;
  c.clean = false;
  log.add(Snapshot(a));
  log.add(Snapshot(b));
  log.add(Snapshot(c));
  EXPECT_EQ(log.taken(), 3u);
  ASSERT_NE(log.last(), nullptr);
  EXPECT_EQ(log.last()->now, 30);
  ASSERT_NE(log.lastClean(), nullptr);
  EXPECT_EQ(log.lastClean()->now, 10);
  Snapshot d;
  d.now = 40;
  d.clean = true;
  log.add(Snapshot(d));
  EXPECT_EQ(log.lastClean()->now, 40);
  log.clear();
  EXPECT_EQ(log.taken(), 0u);
  EXPECT_EQ(log.last(), nullptr);
  EXPECT_EQ(log.lastClean(), nullptr);
}

// --- supervised recovery under destructive faults -------------------------

fault::Plan destructivePlan(int which, std::uint64_t seed) {
  fault::Plan plan;
  plan.seed = seed;
  switch (which) {
    case 0: plan.dropResultPermille = 60; break;
    case 1: plan.dupResultPermille = 60; break;
    case 2: plan.dropAckPermille = 60; break;
    case 3: plan.dupAckPermille = 60; break;
  }
  return plan;
}

const char* destructiveName(int which) {
  switch (which) {
    case 0: return "drop-result";
    case 1: return "dup-result";
    case 2: return "drop-ack";
    case 3: return "dup-ack";
  }
  return "?";
}

TEST(RecoverSupervisor, DestructiveFaultsRecoverBitIdentically) {
  const Workload w = makeWorkload(0);
  for (SchedulerKind k : kAllSchedulers) {
    const MachineResult ref = machine::simulate(
        w.expanded, MachineConfig::unit(), w.streams, baseOpts(w, k));
    ASSERT_TRUE(ref.completed);
    for (int which = 0; which < 4; ++which) {
      const std::string what = std::string(schedName(k)) + "/" +
                               destructiveName(which);
      const fault::Plan plan = destructivePlan(which, 7 + which);
      RunOptions opts = baseOpts(w, k);
      opts.faults = &plan;
      opts.guards = true;  // dup faults surface through the guards

      // Unsupervised, the faulted run must die loudly (or, when no fault
      // happened to trigger, complete with the fault-free outputs).
      bool failed = false;
      try {
        RunOptions rawOpts = opts;
        rawOpts.watchdog = 2000;  // a poisoned arc must surface as a stall
        const MachineResult raw = machine::simulate(
            w.expanded, MachineConfig::unit(), w.streams, rawOpts);
        failed = !raw.completed;
        if (raw.completed) {
          EXPECT_EQ(raw.outputs, ref.outputs) << what << " (untriggered)";
        }
      } catch (const run::StallError&) {
        failed = true;
      } catch (const guard::ViolationError&) {
        failed = true;
      } catch (const InternalError&) {
        failed = true;
      }

      // Supervised, the same run recovers to the exact fault-free result.
      recover::RetryPolicy policy;
      policy.checkpointEvery = std::max<std::int64_t>(ref.cycles / 8, 1);
      policy.sleepBetweenRetries = false;
      recover::Report report;
      const MachineResult rec =
          recover::superviseRun(w.expanded, nullptr, MachineConfig::unit(),
                                w.streams, opts, policy, &report);
      testing::expectIdentical(rec, ref, what + " (supervised)");
      EXPECT_EQ(rec.faults.destructive(), 0u) << what;
      EXPECT_EQ(report.recovered, failed) << what << "\n" << report.str();
      if (failed) {
        ASSERT_GE(report.attemptsUsed(), 2) << what;
        EXPECT_TRUE(report.attempts.back().strippedFaults) << what;
      }
    }
  }
}

TEST(RecoverSupervisor, RestartsFromScratchWithoutCheckpoints) {
  const Workload w = makeWorkload(1);
  const MachineResult ref =
      machine::simulate(w.expanded, MachineConfig::unit(), w.streams,
                        baseOpts(w, SchedulerKind::EventDriven));
  const fault::Plan plan = destructivePlan(0, 11);
  RunOptions opts = baseOpts(w, SchedulerKind::EventDriven);
  opts.faults = &plan;
  opts.guards = true;
  recover::RetryPolicy policy;
  policy.checkpointEvery = 0;  // no checkpoints: recovery = full restart
  policy.sleepBetweenRetries = false;
  recover::Report report;
  const MachineResult rec =
      recover::superviseRun(w.expanded, nullptr, MachineConfig::unit(),
                            w.streams, opts, policy, &report);
  testing::expectIdentical(rec, ref, "restart-from-scratch");
  for (const recover::Attempt& a : report.attempts)
    EXPECT_EQ(a.restoredFrom, -1);
}

TEST(RecoverSupervisor, ExhaustionThrowsWithReport) {
  const Workload w = makeWorkload(0);
  const fault::Plan plan = destructivePlan(0, 5);
  RunOptions opts = baseOpts(w, SchedulerKind::EventDriven);
  opts.faults = &plan;
  opts.guards = true;
  recover::RetryPolicy policy;
  policy.maxAttempts = 2;
  policy.stripDestructiveFaults = false;  // the retry re-injects and re-dies
  policy.checkpointEvery = 32;
  policy.sleepBetweenRetries = false;
  try {
    recover::superviseRun(w.expanded, nullptr, MachineConfig::unit(),
                          w.streams, opts, policy, nullptr);
    FAIL() << "expected RecoveryExhausted";
  } catch (const recover::RecoveryExhausted& e) {
    EXPECT_EQ(e.report().attemptsUsed(), 2);
    EXPECT_FALSE(e.report().completed);
    for (const recover::Attempt& a : e.report().attempts)
      EXPECT_FALSE(a.ok);
  }
}

// --- deadlines ------------------------------------------------------------

TEST(RecoverDeadline, ExpiryThrowsDeadlineError) {
  const Workload w = makeWorkload(0);
  for (SchedulerKind k : kAllSchedulers) {
    RunOptions opts = baseOpts(w, k, /*waves=*/200);
    opts.deadlineMicros = 1;  // expires before the first periodic check
    EXPECT_THROW(machine::simulate(w.expanded, MachineConfig::unit(),
                                   w.streams, opts),
                 run::DeadlineError)
        << schedName(k);
  }
}

TEST(RecoverDeadline, SupervisorGrowsTheBudget) {
  const Workload w = makeWorkload(0);
  const MachineResult ref =
      machine::simulate(w.expanded, MachineConfig::unit(), w.streams,
                        baseOpts(w, SchedulerKind::EventDriven, 40));
  RunOptions opts = baseOpts(w, SchedulerKind::EventDriven, 40);
  opts.deadlineMicros = 1;
  recover::RetryPolicy policy;
  policy.maxAttempts = 8;
  policy.deadlineGrowthFactor = 100.0;  // 1us -> 100us -> 10ms -> 1s ...
  policy.checkpointEvery = 64;
  policy.sleepBetweenRetries = false;
  recover::Report report;
  const MachineResult rec =
      recover::superviseRun(w.expanded, nullptr, MachineConfig::unit(),
                            w.streams, opts, policy, &report);
  testing::expectIdentical(rec, ref, "deadline growth");
  EXPECT_TRUE(report.recovered) << report.str();
  EXPECT_EQ(report.attempts.front().errorType, "deadline");
}

}  // namespace
}  // namespace valpipe

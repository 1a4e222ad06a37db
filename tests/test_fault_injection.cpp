// Fault-injection matrix (tests/test_fault_injection.cpp of the resilience
// layer's contract):
//
//   * timing faults (latency jitter, delivery delay, FU outages) change
//     only *when* packets move — on random
//     programs, every scheduler under every seeded timing plan must produce
//     outputs AND packet counters bit-identical to the fault-free Reference
//     run.  This is the machine-level restatement of the paper's determinacy
//     claim: the §2 acknowledge discipline makes results data-determined,
//     independent of timing.
//
//   * destructive faults (dropped / duplicated result and acknowledge
//     packets) break the discipline on purpose — a run under them must end
//     in one of exactly three ways: recovery with bit-identical outputs, a
//     guard::ViolationError naming the offending cell, or a run::StallError
//     whose diagnosis names what is missing.  Never a hang, never a crash,
//     never silently wrong output.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "dfg/lower.hpp"
#include "fault/plan.hpp"
#include "generators.hpp"
#include "guard/guard.hpp"
#include "machine/engine.hpp"
#include "sim/interpreter.hpp"
#include "testing.hpp"
#include "val/eval.hpp"

namespace valpipe {
namespace {

using machine::MachineConfig;
using machine::MachineResult;
using machine::RunOptions;
using machine::SchedulerKind;
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

/// One random program compiled and ready to run.
struct Workload {
  core::CompiledProgram prog;
  dfg::Graph lowered;
  run::StreamMap streams;
  std::string src;
};

Workload makeWorkload(int p) {
  GenOptions gopts;
  gopts.blocks = 1 + p % 3;
  gopts.m = 8 + p % 5;
  ProgramGen gen(static_cast<unsigned>(p) * 271 + 9, gopts);
  Workload w;
  w.src = gen.module();
  val::Module mod = core::frontend(w.src);
  val::ArrayMap in;
  unsigned k = 0;
  for (const val::Param& prm : mod.params)
    in[prm.name] = randomArray(*prm.type.range,
                               static_cast<unsigned>(p) + 100 * k++, 0.0, 1.0);
  w.prog = core::compile(mod);
  w.lowered = dfg::expandFifos(w.prog.graph);
  w.streams = testing::inputsFor(w.prog, in);
  return w;
}

MachineResult runUnder(const Workload& w, const MachineConfig& cfg,
                       SchedulerKind k, const fault::Plan* plan,
                       bool guards, std::int64_t watchdog,
                       bool toQuiescence = false) {
  RunOptions opts;
  opts.waves = 1;
  // A quiescence run retires every in-flight token, so even firing counts
  // are data-determined; with an output expectation the run stops the
  // moment the last output lands, and a timing fault may legally let an
  // upstream source squeeze in one more (harmless) firing before the stop.
  if (!toQuiescence)
    opts.expectedOutputs[w.prog.outputName] = w.prog.expectedOutputPerWave();
  opts.scheduler = k;
  opts.maxInstructionTimes = 500'000;  // backstop: faulted runs must not spin
  opts.faults = plan;
  opts.guards = guards;
  opts.watchdog = watchdog;
  return machine::simulate(w.lowered, cfg, w.streams, opts);
}

/// The timing-fault contract: everything data-determined is bit-identical to
/// the fault-free run.  Instruction-time fields (cycles, outputTimes) are
/// exactly what timing faults are allowed to move, so they are excluded.
void expectDeterminate(const MachineResult& got, const MachineResult& ref,
                       const std::string& what) {
  EXPECT_TRUE(got.completed) << what << ": " << got.note;
  EXPECT_EQ(got.outputs, ref.outputs) << what << ": outputs";
  EXPECT_EQ(got.amFinal, ref.amFinal) << what << ": amFinal";
  EXPECT_EQ(got.firings, ref.firings) << what << ": firings";
  EXPECT_EQ(got.totalFirings, ref.totalFirings) << what << ": totalFirings";
  EXPECT_EQ(got.packets.resultPackets, ref.packets.resultPackets)
      << what << ": resultPackets";
  EXPECT_EQ(got.packets.ackPackets, ref.packets.ackPackets)
      << what << ": ackPackets";
  EXPECT_EQ(got.packets.opPacketsByClass, ref.packets.opPacketsByClass)
      << what << ": opPacketsByClass";
  EXPECT_EQ(got.packets.networkResultPackets,
            ref.packets.networkResultPackets)
      << what << ": networkResultPackets";
  EXPECT_EQ(got.fuBusy, ref.fuBusy) << what << ": fuBusy";
  EXPECT_EQ(got.pePackets, ref.pePackets) << what << ": pePackets";
}

std::vector<fault::Plan> timingPlans(unsigned seed) {
  std::vector<fault::Plan> plans;
  {
    fault::Plan p;
    p.seed = seed;
    p.latencyJitterMax = 3;
    plans.push_back(p);
  }
  {
    fault::Plan p;
    p.seed = seed + 1;
    p.deliveryDelayMax = 2;
    plans.push_back(p);
  }
  {
    fault::Plan p;
    p.seed = seed + 3;
    p.outages.push_back({dfg::FuClass::Fpu, 3, 9});
    p.outages.push_back({dfg::FuClass::Alu, 10, 5});
    plans.push_back(p);
  }
  {
    fault::Plan p;  // everything at once
    p.seed = seed + 4;
    p.latencyJitterMax = 2;
    p.deliveryDelayMax = 1;
    p.outages.push_back({dfg::FuClass::Fpu, 5, 6});
    plans.push_back(p);
  }
  return plans;
}

class FaultMatrix : public ::testing::TestWithParam<int> {};

TEST_P(FaultMatrix, TimingFaultsPreserveOutputsAndPacketCounts) {
  const int p = GetParam();
  const Workload w = makeWorkload(p);
  SCOPED_TRACE(w.src);
  const MachineConfig cfg =
      (p % 2 == 0) ? MachineConfig::unit()
                   : MachineConfig::hardware(/*fpus=*/2, /*alus=*/2, /*ams=*/1);

  // Fault-free Reference run to quiescence: the oracle everything must
  // match, down to the per-cell firing counts.
  const MachineResult oracle = runUnder(w, cfg, SchedulerKind::Reference,
                                        nullptr, false, 0,
                                        /*toQuiescence=*/true);
  ASSERT_TRUE(oracle.completed) << oracle.note;
  EXPECT_EQ(oracle.faults.destructive(), 0u);
  EXPECT_TRUE(oracle.faults.str().empty());

  int planIdx = 0;
  for (const fault::Plan& plan : timingPlans(static_cast<unsigned>(p) * 7)) {
    ASSERT_TRUE(plan.timingOnly());
    for (const SchedulerKind k : kAllSchedulers) {
      const std::string what = std::string(schedName(k)) + " plan " +
                               std::to_string(planIdx) + " (" +
                               fault::describe(plan) + ")";
      const MachineResult res = runUnder(w, cfg, k, &plan, false, 0,
                                         /*toQuiescence=*/true);
      expectDeterminate(res, oracle, what);
    }
    ++planIdx;
  }
}

TEST_P(FaultMatrix, TimingFaultsUnderGuardsAndPlacementStayClean) {
  const int p = GetParam();
  const Workload w = makeWorkload(p);
  SCOPED_TRACE(w.src);
  MachineConfig cfg = MachineConfig::hardware();
  cfg.interPeDelay = 2;

  RunOptions base;
  base.waves = 1;
  base.expectedOutputs[w.prog.outputName] = w.prog.expectedOutputPerWave();
  base.maxInstructionTimes = 500'000;
  base.placement = machine::assignCells(
      w.lowered, 3, machine::PlacementStrategy::RoundRobin);

  RunOptions refOpts = base;
  refOpts.scheduler = SchedulerKind::Reference;
  const MachineResult oracle =
      machine::simulate(w.lowered, cfg, w.streams, refOpts);
  ASSERT_TRUE(oracle.completed) << oracle.note;

  fault::Plan plan;
  plan.seed = static_cast<unsigned>(p) * 13 + 5;
  plan.latencyJitterMax = 2;
  plan.deliveryDelayMax = 2;
  plan.outages.push_back({dfg::FuClass::Pe, 2, 4});
  for (const SchedulerKind k : kAllSchedulers) {
    RunOptions opts = base;
    opts.scheduler = k;
    opts.faults = &plan;
    opts.guards = true;  // a timing fault must never trip a guard
    opts.watchdog = 2'000;  // nor may the watchdog misfire on a live run
    const MachineResult res =
        machine::simulate(w.lowered, cfg, w.streams, opts);
    // The run stops at output completion, so in-flight counters may be
    // truncated at a timing-dependent point; the data itself may not move.
    const std::string what = std::string(schedName(k)) + " guarded+placed";
    EXPECT_TRUE(res.completed) << what << ": " << res.note;
    EXPECT_EQ(res.outputs, oracle.outputs) << what << ": outputs";
    EXPECT_EQ(res.amFinal, oracle.amFinal) << what << ": amFinal";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultMatrix, ::testing::Range(0, 6));

enum class Outcome { Recovered, Violation, Stall };

/// Runs one destructive plan and classifies the ending.  Anything other than
/// the three sanctioned endings (or wrong output values on recovery) fails.
Outcome destructiveOutcome(const Workload& w, const MachineConfig& cfg,
                           SchedulerKind k, const fault::Plan& plan,
                           const MachineResult& oracle,
                           const std::string& what) {
  try {
    const MachineResult res = runUnder(w, cfg, k, &plan, true, 500);
    // The run ended normally: every expected output must have arrived with
    // values bit-identical to the fault-free run — "mostly recovered" with
    // wrong data is exactly the silent failure this suite exists to catch.
    EXPECT_TRUE(res.completed) << what << ": ended incomplete without a stall"
                               << " diagnosis: " << res.note;
    EXPECT_EQ(res.outputs, oracle.outputs) << what << ": recovered run "
                                           << "produced different outputs";
    EXPECT_EQ(res.amFinal, oracle.amFinal) << what << ": amFinal";
    return Outcome::Recovered;
  } catch (const guard::ViolationError& e) {
    // A guard tripped: the message must name the invariant and the cell.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("invariant"), std::string::npos) << what << ": " << msg;
    EXPECT_NE(msg.find("cell #"), std::string::npos) << what << ": " << msg;
    EXPECT_NE(msg.find("arc counters"), std::string::npos)
        << what << ": " << msg;
    return Outcome::Violation;
  } catch (const run::StallError& e) {
    // The watchdog (or cap) tripped: the diagnosis must say when, what is
    // incomplete, and attribute the starvation to the injected faults.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("at t="), std::string::npos) << what << ": " << msg;
    EXPECT_NE(msg.find("incomplete outputs"), std::string::npos)
        << what << ": " << msg;
    EXPECT_NE(msg.find("injected faults"), std::string::npos)
        << what << ": " << msg;
    return Outcome::Stall;
  }
  // Unreachable; any other exception escapes and fails the test hard.
}

TEST(FaultDestructive, DropsAndDuplicatesNeverHangOrCorruptSilently) {
  int recovered = 0, violations = 0, stalls = 0;
  for (int p = 0; p < 3; ++p) {
    const Workload w = makeWorkload(p);
    SCOPED_TRACE(w.src);
    const MachineConfig cfg = MachineConfig::unit();
    const MachineResult oracle = runUnder(w, cfg, SchedulerKind::Reference,
                                          nullptr, false, 0);
    ASSERT_TRUE(oracle.completed) << oracle.note;

    struct Destructive {
      const char* name;
      fault::Plan plan;
    };
    std::vector<Destructive> plans;
    auto add = [&](const char* name, auto&& set) {
      Destructive d;
      d.name = name;
      d.plan.seed = static_cast<unsigned>(p) * 31 + 2;
      set(d.plan);
      plans.push_back(d);
    };
    add("drop-result", [](fault::Plan& f) { f.dropResultPermille = 25; });
    add("dup-result", [](fault::Plan& f) { f.dupResultPermille = 25; });
    add("drop-ack", [](fault::Plan& f) { f.dropAckPermille = 25; });
    add("dup-ack", [](fault::Plan& f) { f.dupAckPermille = 25; });
    add("mixed", [](fault::Plan& f) {
      f.dropResultPermille = 10;
      f.dupResultPermille = 10;
      f.dropAckPermille = 10;
      f.dupAckPermille = 10;
      f.latencyJitterMax = 1;  // destructive faults compose with timing ones
    });

    for (const Destructive& d : plans) {
      for (const SchedulerKind k : kAllSchedulers) {
        const std::string what = std::string(schedName(k)) + " seed " +
                                 std::to_string(p) + " " + d.name;
        switch (destructiveOutcome(w, cfg, k, d.plan, oracle, what)) {
          case Outcome::Recovered: ++recovered; break;
          case Outcome::Violation: ++violations; break;
          case Outcome::Stall: ++stalls; break;
        }
      }
    }
  }
  // With 25‰ rates over hundreds of packets, the matrix must actually have
  // exercised the failure endings, not just breezed through clean runs.
  EXPECT_GT(violations + stalls, 0)
      << "matrix never hit a fault path (recovered=" << recovered << ")";
}

TEST(FaultDestructive, EveryResultDroppedYieldsLostPacketDiagnosis) {
  const Workload w = makeWorkload(1);
  fault::Plan plan;
  plan.dropResultPermille = 1000;  // certainty: every result packet is lost
  for (const SchedulerKind k : kAllSchedulers) {
    try {
      runUnder(w, MachineConfig::unit(), k, &plan, true, 200);
      FAIL() << schedName(k) << ": run with every result dropped completed";
    } catch (const run::StallError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("lost in the network"), std::string::npos)
          << schedName(k) << ": " << msg;
      EXPECT_NE(msg.find("dropped"), std::string::npos)
          << schedName(k) << ": " << msg;
      EXPECT_GT(e.at(), 0) << schedName(k);
    } catch (const guard::ViolationError& e) {
      // Acceptable alternative ending: a guard may fire before starvation.
      EXPECT_NE(std::string(e.what()).find("cell #"), std::string::npos)
          << schedName(k) << ": " << e.what();
    }
  }
}

TEST(FaultDestructive, EveryResultDuplicatedTripsAGuardByName) {
  const Workload w = makeWorkload(2);
  fault::Plan plan;
  plan.dupResultPermille = 1000;  // the duplicate lands in an occupied slot
  for (const SchedulerKind k : kAllSchedulers) {
    try {
      runUnder(w, MachineConfig::unit(), k, &plan, true, 200);
      FAIL() << schedName(k)
             << ": run with every result duplicated passed the guards";
    } catch (const guard::ViolationError& e) {
      EXPECT_TRUE(e.invariant() == guard::Invariant::NeverOverwrite ||
                  e.invariant() == guard::Invariant::TokenConservation)
          << schedName(k) << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find("cell #"), std::string::npos)
          << schedName(k) << ": " << e.what();
    }
  }
}

TEST(FaultPlan, ParseDescribeRoundTrip) {
  const fault::Plan p = fault::parsePlan(
      "seed=7,jitter=3,delay=2,outage=fpu@10+20,"
      "outage=alu@5+3,drop-result=5,dup-result=6,drop-ack=7,dup-ack=8");
  EXPECT_EQ(p.seed, 7u);
  EXPECT_EQ(p.latencyJitterMax, 3);
  EXPECT_EQ(p.deliveryDelayMax, 2);
  ASSERT_EQ(p.outages.size(), 2u);
  EXPECT_EQ(p.outages[0].fu, dfg::FuClass::Fpu);
  EXPECT_EQ(p.outages[0].from, 10);
  EXPECT_EQ(p.outages[0].length, 20);
  EXPECT_EQ(p.dropResultPermille, 5);
  EXPECT_EQ(p.dupResultPermille, 6);
  EXPECT_EQ(p.dropAckPermille, 7);
  EXPECT_EQ(p.dupAckPermille, 8);
  EXPECT_FALSE(p.timingOnly());
  EXPECT_EQ(p.maxExtraDelay(), 3 + 2);
  EXPECT_EQ(p.lastOutageEnd(), 30);

  // describe() round-trips through parsePlan.
  const fault::Plan q = fault::parsePlan(fault::describe(p));
  EXPECT_EQ(q.seed, p.seed);
  EXPECT_EQ(q.latencyJitterMax, p.latencyJitterMax);
  EXPECT_EQ(q.deliveryDelayMax, p.deliveryDelayMax);
  EXPECT_EQ(q.outages.size(), p.outages.size());
  EXPECT_EQ(q.dropResultPermille, p.dropResultPermille);
  EXPECT_EQ(q.dupAckPermille, p.dupAckPermille);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(fault::parsePlan("bogus"), CompileError);
  EXPECT_THROW(fault::parsePlan("jitter="), CompileError);
  EXPECT_THROW(fault::parsePlan("jitter=abc"), CompileError);
  EXPECT_THROW(fault::parsePlan("outage=xyz@1+2"), CompileError);
  EXPECT_THROW(fault::parsePlan("outage=fpu@1"), CompileError);
  EXPECT_THROW(fault::parsePlan("drop-result=2000"), CompileError);
  EXPECT_THROW(fault::parsePlan("drop-result=-1"), CompileError);
  // Keys of no fault class are rejected, not ignored.
  EXPECT_THROW(fault::parsePlan("skew=1"), CompileError);
  EXPECT_THROW(fault::parsePlan("reorder"), CompileError);
}

TEST(StallCap, InterpreterThrowsPastInstructionTimeCap) {
  const auto prog = core::compile(core::frontend(testing::example1Source(8)));
  val::ArrayMap in;
  in["B"] = randomArray({0, 9}, 41);
  in["C"] = randomArray({0, 9}, 42);
  run::RunOptions opts;
  opts.maxInstructionTimes = 10;  // far below what the program needs
  EXPECT_THROW(
      sim::interpret(prog.graph, testing::inputsFor(prog, in), opts),
      run::StallError);
}

TEST(StallCap, EveryEngineThrowsWhenCapCutsARunShort) {
  const Workload w = makeWorkload(0);
  for (const SchedulerKind k : kAllSchedulers) {
    RunOptions opts;
    opts.waves = 1;
    opts.expectedOutputs[w.prog.outputName] = w.prog.expectedOutputPerWave();
    opts.scheduler = k;
    opts.maxInstructionTimes = 5;  // cuts any real run short
    try {
      machine::simulate(w.lowered, MachineConfig::unit(), w.streams, opts);
      FAIL() << schedName(k) << ": truncated run did not throw";
    } catch (const run::StallError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("cap"), std::string::npos)
          << schedName(k) << ": " << msg;
      EXPECT_NE(msg.find("incomplete outputs"), std::string::npos)
          << schedName(k) << ": " << msg;
    }
  }
}

TEST(Watchdog, UnbalancedExpectationDiagnosesDeadlockNotFaults) {
  // An impossible output expectation deadlocks every engine; with the
  // watchdog armed this becomes a StallError whose diagnosis names the
  // graph, not injected faults (there are none).
  const Workload w = makeWorkload(3);
  for (const SchedulerKind k : kAllSchedulers) {
    RunOptions opts;
    opts.waves = 1;
    opts.expectedOutputs[w.prog.outputName] = 1'000'000;  // never arrives
    opts.scheduler = k;
    opts.watchdog = 100;
    opts.maxInstructionTimes = 500'000;
    try {
      machine::simulate(w.lowered, MachineConfig::unit(), w.streams, opts);
      FAIL() << schedName(k) << ": impossible expectation completed";
    } catch (const run::StallError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("incomplete outputs"), std::string::npos)
          << schedName(k) << ": " << msg;
      EXPECT_EQ(msg.find("injected faults"), std::string::npos)
          << schedName(k) << ": fault-free stall blamed the injector: " << msg;
    }
  }
}

TEST(Watchdog, DisarmedDeadlockStillEndsWithoutThrowing) {
  // Without the watchdog, the legacy ending survives: the run quiesces and
  // reports incompleteness through MachineResult, throwing nothing.
  const Workload w = makeWorkload(3);
  RunOptions opts;
  opts.waves = 1;
  opts.expectedOutputs[w.prog.outputName] = 1'000'000;
  const MachineResult res =
      machine::simulate(w.lowered, MachineConfig::unit(), w.streams, opts);
  EXPECT_FALSE(res.completed);
}

}  // namespace
}  // namespace valpipe

// Scheduler-equivalence suite: on randomly generated Val programs (primitive
// expressions, forall and for-iter blocks) the event-driven scheduler must
// produce a MachineResult bit-identical to the reference stepper — every
// field, not just outputs — under varied timing profiles, finite FU pools,
// placements and multi-wave runs; and the outputs must match the functional
// reference evaluator while sustaining the compiler's predicted steady rate
// (1/2 for pipelines, 1/3 for Todd's scheme, k/S for a cycle of S stages
// carrying k tokens).
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "dfg/lower.hpp"
#include "generators.hpp"
#include "machine/engine.hpp"
#include "machine/placement.hpp"
#include "obs/metrics.hpp"
#include "opt/fuse.hpp"
#include "serve/lanes.hpp"
#include "testing.hpp"
#include "val/eval.hpp"

namespace valpipe {
namespace {

using core::CompileOptions;
using core::ForIterScheme;
using machine::MachineConfig;
using machine::MachineResult;
using machine::RunOptions;
using machine::SchedulerKind;
using testing::GenOptions;
using testing::ProgramGen;
using testing::randomArray;

using testing::expectIdentical;
using testing::FigureProgram;
using testing::figureInputs;
using testing::replayFigures;

/// Runs all three schedulers on the same workload and checks EventDriven and
/// Compiled against the reference stepper field-by-field.  Compiled rides
/// along on every workload: accepted graphs take the fast-forward path,
/// everything else exercises its fallback paths — either way the result must
/// stay bit-identical.
MachineResult runAllSchedulers(const dfg::Graph& lowered,
                               const MachineConfig& cfg,
                               const run::StreamMap& in, RunOptions opts,
                               const std::string& what) {
  opts.scheduler = SchedulerKind::Reference;
  const MachineResult ref = machine::simulate(lowered, cfg, in, opts);
  opts.scheduler = SchedulerKind::EventDriven;
  const MachineResult ed = machine::simulate(lowered, cfg, in, opts);
  opts.scheduler = SchedulerKind::Compiled;
  const MachineResult cp = machine::simulate(lowered, cfg, in, opts);
  expectIdentical(ed, ref, what + " [event-driven vs reference]");
  expectIdentical(cp, ref, what + " [compiled vs reference]");
  EXPECT_TRUE(cp.compiled.requested) << what;
  return ref;
}

val::ArrayMap genInputs(const val::Module& mod, unsigned seed) {
  val::ArrayMap in;
  unsigned k = 0;
  for (const val::Param& p : mod.params)
    in[p.name] = randomArray(*p.type.range, seed + 100 * k++, 0.0, 1.0);
  return in;
}

class SchedulerEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerEquivalence, RandomProgramsBitIdenticalAcrossSchedulers) {
  const int p = GetParam();
  GenOptions gopts;
  gopts.blocks = 1 + p % 3;
  gopts.m = 8 + p % 5;
  ProgramGen gen(static_cast<unsigned>(p) * 271 + 9, gopts);
  const std::string src = gen.module();
  SCOPED_TRACE(src);

  val::Module mod = core::frontend(src);
  const val::ArrayMap in = genInputs(mod, static_cast<unsigned>(p));
  const auto ref = val::evaluate(mod, in);
  const auto prog = core::compile(mod);
  const dfg::Graph lowered = dfg::expandFifos(prog.graph);
  const run::StreamMap streams = testing::inputsFor(prog, in);

  struct Variant {
    std::string name;
    MachineConfig cfg;
    int waves = 1;
    int peCount = 0;  // 0 => no placement
  };
  std::vector<Variant> variants;
  variants.push_back({"unit", MachineConfig::unit(), 1, 0});
  variants.push_back({"hardware", MachineConfig::hardware(), 1, 0});
  {
    MachineConfig finite = MachineConfig::hardware(/*fpus=*/2, /*alus=*/2,
                                                   /*ams=*/1);
    variants.push_back({"finite-fus", finite, 1, 0});
  }
  variants.push_back({"placed", MachineConfig::hardware(), 1, 3});
  variants.push_back({"waves", MachineConfig::unit(), 2, 0});

  for (const Variant& v : variants) {
    RunOptions opts;
    opts.waves = v.waves;
    opts.expectedOutputs[prog.outputName] =
        prog.expectedOutputPerWave() * v.waves;
    if (v.peCount > 0) {
      MachineConfig cfg = v.cfg;
      cfg.interPeDelay = 2;
      opts.placement = machine::assignCells(
          lowered, v.peCount, machine::PlacementStrategy::RoundRobin);
      const MachineResult res =
          runAllSchedulers(lowered, cfg, streams, opts, v.name);
      ASSERT_TRUE(res.completed) << v.name << ": " << res.note;
      continue;
    }
    const MachineResult res =
        runAllSchedulers(lowered, v.cfg, streams, opts, v.name);
    ASSERT_TRUE(res.completed) << v.name << ": " << res.note;
    // Functional ground truth: outputs equal the reference evaluator's.
    std::vector<Value> want;
    for (int w = 0; w < v.waves; ++w)
      want.insert(want.end(), ref.result.elems.begin(),
                  ref.result.elems.end());
    testing::expectStreamNear(res.outputs.at(prog.outputName), want, 1e-7,
                              v.name);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerEquivalence, ::testing::Range(0, 18));

TEST(SchedulerEquivalence, DeadlockMaxCyclesAndQuiescenceAgree) {
  const auto prog = core::compile(core::frontend(testing::example1Source(8)));
  const dfg::Graph lowered = dfg::expandFifos(prog.graph);
  val::ArrayMap in;
  in["B"] = randomArray({0, 9}, 11);
  in["C"] = randomArray({0, 9}, 12);
  const run::StreamMap streams = testing::inputsFor(prog, in);

  // Impossible expectation -> both report the same deadlock.
  RunOptions starve;
  starve.expectedOutputs[prog.outputName] = 10'000;
  runAllSchedulers(lowered, MachineConfig::unit(), streams, starve,
                   "deadlock");

  // Truncated run -> both report maxCycles exceeded at the same point.
  RunOptions truncated;
  truncated.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
  truncated.maxCycles = 7;
  runAllSchedulers(lowered, MachineConfig::hardware(), streams, truncated,
                   "maxCycles");

  // No expectation -> both run to quiescence with identical cycle counts.
  RunOptions open;
  const MachineResult res = runAllSchedulers(
      lowered, MachineConfig::unit(), streams, open, "quiescence");
  EXPECT_TRUE(res.completed);
}

TEST(SchedulerEquivalence, ForallSustainsPredictedHalfRate) {
  const int m = 128;
  val::Module mod = core::frontend(testing::example1Source(m));
  val::ArrayMap in;
  in["B"] = randomArray({0, m + 1}, 21);
  in["C"] = randomArray({0, m + 1}, 22);
  const auto ref = val::evaluate(mod, in);
  const auto prog = core::compile(mod);
  EXPECT_DOUBLE_EQ(prog.predictedRate(), 0.5);
  testing::checkMachine(prog, in, ref.result.elems, 1e-7, 1, 0.45, 0.5);
}

TEST(SchedulerEquivalence, ForIterSchemesSustainPredictedRates) {
  const int m = 255;
  val::Module mod = core::frontend(testing::example2Source(m));
  val::ArrayMap in;
  in["A"] = randomArray({1, m}, 31, -0.8, 0.8);
  in["B"] = randomArray({1, m}, 32);
  const auto ref = val::evaluate(mod, in);

  // Todd's scheme: a 3-stage feedback cycle with one token -> rate 1/3.
  {
    CompileOptions opts;
    opts.forIterScheme = ForIterScheme::Todd;
    const auto prog = core::compile(mod, opts);
    EXPECT_NEAR(prog.predictedRate(), 1.0 / 3.0, 1e-9);
    const auto res =
        testing::checkMachine(prog, in, ref.result.elems, 1e-6, 1,
                              prog.predictedRate() - 0.04, prog.predictedRate());
    EXPECT_TRUE(res.completed);
  }
  // Companion scheme, skip k: S = 2k stages carry k tokens -> rate k/S = 1/2.
  for (int k : {2, 8}) {
    CompileOptions opts;
    opts.forIterScheme = ForIterScheme::Companion;
    opts.companionSkip = k;
    const auto prog = core::compile(mod, opts);
    ASSERT_EQ(prog.blocks[0].cycleStages, 2 * k);
    ASSERT_EQ(prog.blocks[0].cycleTokens, k);
    const double predicted =
        static_cast<double>(prog.blocks[0].cycleTokens) /
        static_cast<double>(prog.blocks[0].cycleStages);
    EXPECT_DOUBLE_EQ(prog.predictedRate(), predicted);
    const auto res = testing::checkMachine(prog, in, ref.result.elems, 1e-6, 1,
                                           predicted - 0.05, predicted);
    EXPECT_TRUE(res.completed);
  }
}

// --- SchedulerKind::Compiled: steady-state fast-forward ---------------------

/// A pure-DAG program the schedule IR accepts (no gates, merges, feedback).
std::string dagSource(int m) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function f(A, B: array[real] [1, m] returns array[real])
  forall i in [1, m]
  construct 0.5 * (A[i] + B[i]) * A[i]
  endall
endfun
)";
}

struct CompiledRun {
  MachineResult ed;
  MachineResult cp;
};

CompiledRun runCompiledVsEvent(const dfg::Graph& lowered,
                               const MachineConfig& cfg,
                               const run::StreamMap& in, RunOptions opts) {
  CompiledRun r;
  opts.scheduler = SchedulerKind::EventDriven;
  r.ed = machine::simulate(lowered, cfg, in, opts);
  opts.scheduler = SchedulerKind::Compiled;
  r.cp = machine::simulate(lowered, cfg, in, opts);
  return r;
}

class CompiledScheduler : public ::testing::Test {
 protected:
  void prepare(int m) {
    prog_ = core::compileSource(dagSource(m));
    lowered_ = opt::fuseFifos(prog_.graph);
    val::ArrayMap in;
    in["A"] = randomArray({1, m}, 41);
    in["B"] = randomArray({1, m}, 42);
    streams_ = testing::inputsFor(prog_, in);
  }
  RunOptions expectAll(int waves = 1) const {
    RunOptions opts;
    opts.waves = waves;
    opts.expectedOutputs.emplace(prog_.outputName,
                                 prog_.expectedOutputPerWave() * waves);
    return opts;
  }

  core::CompiledProgram prog_;
  dfg::Graph lowered_;
  run::StreamMap streams_;
};

TEST_F(CompiledScheduler, FastForwardsLargeDagBitIdentical) {
  prepare(1024);
  const CompiledRun r = runCompiledVsEvent(lowered_, MachineConfig::unit(),
                                           streams_, expectAll());
  expectIdentical(r.cp, r.ed, "compiled fast-forward (unit)");
  ASSERT_TRUE(r.cp.completed) << r.cp.note;
  EXPECT_TRUE(r.cp.compiled.accepted) << r.cp.compiled.reason;
  EXPECT_TRUE(r.cp.compiled.fastForwarded) << r.cp.compiled.reason;
  EXPECT_GT(r.cp.compiled.windowsSkipped, 0);
  EXPECT_EQ(r.cp.compiled.hyperPeriod, 2);
  EXPECT_EQ(r.cp.compiled.detectedPeriod, 2);
  EXPECT_TRUE(r.cp.compiled.vectorized);
}

TEST_F(CompiledScheduler, FastForwardsUnderHardwareProfileAndMultipleWaves) {
  prepare(512);
  const CompiledRun r = runCompiledVsEvent(lowered_, MachineConfig::hardware(),
                                           streams_, expectAll(/*waves=*/3));
  expectIdentical(r.cp, r.ed, "compiled fast-forward (hardware, 3 waves)");
  ASSERT_TRUE(r.cp.completed) << r.cp.note;
  EXPECT_TRUE(r.cp.compiled.fastForwarded) << r.cp.compiled.reason;
  EXPECT_GT(r.cp.compiled.windowsSkipped, 0);
}

TEST_F(CompiledScheduler, FastForwardsToQuiescenceWithoutExpectations) {
  prepare(768);
  const CompiledRun r = runCompiledVsEvent(lowered_, MachineConfig::unit(),
                                           streams_, RunOptions{});
  expectIdentical(r.cp, r.ed, "compiled quiescence run");
  ASSERT_TRUE(r.cp.completed) << r.cp.note;
  EXPECT_TRUE(r.cp.compiled.fastForwarded) << r.cp.compiled.reason;
  EXPECT_GT(r.cp.compiled.windowsSkipped, 0);
}

TEST_F(CompiledScheduler, GuardsValidatePerHyperPeriodCountersAcrossJumps) {
  prepare(1024);
  RunOptions opts = expectAll();
  opts.guards = true;
  const CompiledRun r =
      runCompiledVsEvent(lowered_, MachineConfig::unit(), streams_, opts);
  expectIdentical(r.cp, r.ed, "compiled run with guards");
  ASSERT_TRUE(r.cp.completed) << r.cp.note;
  EXPECT_TRUE(r.cp.compiled.fastForwarded) << r.cp.compiled.reason;
  EXPECT_GT(r.cp.compiled.windowsSkipped, 0);
}

TEST_F(CompiledScheduler, FiniteFuPoolDisablesFastForwardButStaysIdentical) {
  prepare(256);
  const MachineConfig finite = MachineConfig::hardware(/*fpus=*/2, /*alus=*/2,
                                                       /*ams=*/1);
  const CompiledRun r =
      runCompiledVsEvent(lowered_, finite, streams_, expectAll());
  expectIdentical(r.cp, r.ed, "compiled with finite FU pool");
  EXPECT_TRUE(r.cp.compiled.accepted);
  EXPECT_FALSE(r.cp.compiled.fastForwarded);
  EXPECT_NE(r.cp.compiled.reason.find("function-unit"), std::string::npos)
      << r.cp.compiled.reason;
}

TEST_F(CompiledScheduler, ObservabilitySinksDisableFastForwardButStayIdentical) {
  prepare(256);
  obs::MetricsSink edSink, cpSink;
  RunOptions opts = expectAll();
  opts.scheduler = SchedulerKind::EventDriven;
  opts.metrics = &edSink;
  const MachineResult ed =
      machine::simulate(lowered_, MachineConfig::unit(), streams_, opts);
  opts.scheduler = SchedulerKind::Compiled;
  opts.metrics = &cpSink;
  const MachineResult cp =
      machine::simulate(lowered_, MachineConfig::unit(), streams_, opts);
  expectIdentical(cp, ed, "compiled with metrics sink");
  EXPECT_FALSE(cp.compiled.fastForwarded);
  EXPECT_NE(cp.compiled.reason.find("observability"), std::string::npos)
      << cp.compiled.reason;
}

RunOptions expectWaves(const core::CompiledProgram& prog, int waves) {
  RunOptions opts;
  opts.waves = waves;
  opts.expectedOutputs[prog.outputName] =
      prog.expectedOutputPerWave() * waves;
  return opts;
}

TEST_F(CompiledScheduler, FastForwardsFigureWorkloads) {
  const int m = 512;
  for (const FigureProgram& fp : replayFigures(m)) {
    const run::StreamMap in = figureInputs(fp.prog, 81);
    for (const bool fused : {true, false}) {
      const dfg::Graph lowered = fused ? opt::fuseFifos(fp.prog.graph)
                                       : dfg::expandFifos(fp.prog.graph);
      for (const bool hardware : {false, true}) {
        for (const int waves : {1, 3}) {
          const std::string what = fp.name + (fused ? " fused" : " expanded") +
                                   (hardware ? " hardware" : " unit") +
                                   " waves=" + std::to_string(waves);
          const CompiledRun r = runCompiledVsEvent(
              lowered,
              hardware ? MachineConfig::hardware() : MachineConfig::unit(), in,
              expectWaves(fp.prog, waves));
          expectIdentical(r.cp, r.ed, what);
          ASSERT_TRUE(r.cp.completed) << what << ": " << r.cp.note;
          EXPECT_TRUE(r.cp.compiled.accepted) << what << ": "
                                              << r.cp.compiled.reason;
          EXPECT_TRUE(r.cp.compiled.fastForwarded)
              << what << ": " << r.cp.compiled.reason;
          if (!hardware && waves == 1) {
            EXPECT_TRUE(r.cp.compiled.replayed) << what;
            EXPECT_GE(2 * r.cp.compiled.firingsSkipped, r.cp.totalFirings)
                << what;
          }
        }
      }
    }
    // Guards validate the bulk-advanced per-arc counters at every jump.
    RunOptions opts = expectWaves(fp.prog, 1);
    opts.guards = true;
    const CompiledRun r = runCompiledVsEvent(opt::fuseFifos(fp.prog.graph),
                                             MachineConfig::unit(), in, opts);
    expectIdentical(r.cp, r.ed, fp.name + " with guards");
    EXPECT_TRUE(r.cp.compiled.fastForwarded)
        << fp.name << ": " << r.cp.compiled.reason;
  }
}

TEST_F(CompiledScheduler, ReplayStopsAtControlChange) {
  // A gate pattern T x300, F x300, T x300: the replay must cut each jump at
  // a flip (the skipped windows' control writes would differ from the base
  // window's), the live loop crosses it, and the detector jumps again.
  const std::int64_t n = 900;
  dfg::Graph g;
  const auto a = g.input("a", n);
  dfg::BoolPattern flips;
  for (std::int64_t k = 0; k < n; ++k)
    flips.bits.push_back(k < 300 || k >= 600);
  const auto ctl = g.boolSeq(flips, "ctl");
  const auto gid = g.gatedIdentity(dfg::Graph::out(a), dfg::Graph::out(ctl),
                                   "gid");
  g.output("x", dfg::Graph::outT(gid));
  const run::StreamMap in = {
      {"a", testing::streamOf(randomArray({0, n - 1}, 91))}};
  for (const bool hardware : {false, true}) {
    RunOptions opts;
    opts.expectedOutputs["x"] = 600;
    const CompiledRun r = runCompiledVsEvent(
        g, hardware ? MachineConfig::hardware() : MachineConfig::unit(), in,
        opts);
    expectIdentical(r.cp, r.ed, hardware ? "flips (hardware)" : "flips");
    ASSERT_TRUE(r.cp.completed) << r.cp.note;
    EXPECT_TRUE(r.cp.compiled.replayed) << r.cp.compiled.reason;
    EXPECT_GT(r.cp.compiled.jumps, 1) << r.cp.compiled.reason;
  }
}

TEST_F(CompiledScheduler, ValueErrorInSkippedWindowMatchesEventDriven) {
  // A gated division whose divisor is zero at interior index 1200 of 2000:
  // the replay meets the error in a skipped window, cuts the jump before
  // it, and the live loop throws exactly what EventDriven throws.
  const std::int64_t n = 2000;
  dfg::Graph g;
  const auto a = g.input("a", n);
  const auto b = g.input("b", n);
  const auto ctl = g.boolSeq(dfg::BoolPattern::uniform(true, n), "ctl");
  const auto q = g.binary(dfg::Op::Div, dfg::Graph::out(a), dfg::Graph::out(b),
                          "q");
  const auto gid = g.gatedIdentity(dfg::Graph::out(q), dfg::Graph::out(ctl),
                                   "gid");
  g.output("x", dfg::Graph::outT(gid));
  run::StreamMap in = {
      {"a", testing::streamOf(randomArray({0, n - 1}, 101))},
      {"b", testing::streamOf(randomArray({0, n - 1}, 102, 0.5, 1.0))}};
  RunOptions opts;
  opts.expectedOutputs["x"] = n;

  // Without the zero the whole interior is skipped, index 1200 included.
  const CompiledRun clean =
      runCompiledVsEvent(g, MachineConfig::unit(), in, opts);
  expectIdentical(clean.cp, clean.ed, "division without a zero");
  EXPECT_GT(2 * clean.cp.compiled.firingsSkipped, clean.cp.totalFirings);

  in["b"][1200] = Value(0.0);
  const auto errorOf = [&](SchedulerKind kind) {
    RunOptions o = opts;
    o.scheduler = kind;
    try {
      machine::simulate(g, MachineConfig::unit(), in, o);
    } catch (const ValueError& e) {
      return std::string(e.what());
    }
    return std::string("no ValueError");
  };
  const std::string ed = errorOf(SchedulerKind::EventDriven);
  EXPECT_NE(ed, "no ValueError");
  EXPECT_EQ(errorOf(SchedulerKind::Compiled), ed);
}

TEST_F(CompiledScheduler, LanePacksFastForward) {
  // 8-lane packs (lane-batched serving) ride the replay like scalars; a
  // data-dependent conditional with divergent lanes declines and throws the
  // divergent-lanes error on both schedulers.
  const int m = 256;
  const auto packed = [](const core::CompiledProgram& prog) {
    std::vector<run::StreamMap> lanes;
    for (unsigned l = 0; l < 8; ++l)
      lanes.push_back(figureInputs(prog, 111 + l));
    std::vector<const run::StreamMap*> ptrs;
    for (const run::StreamMap& s : lanes) ptrs.push_back(&s);
    return serve::packLanes(ptrs);
  };
  for (const std::string& src :
       {testing::example1Source(m), testing::figure3Source(m)}) {
    const auto prog = core::compileSource(src);
    const CompiledRun r =
        runCompiledVsEvent(opt::fuseFifos(prog.graph), MachineConfig::unit(),
                           packed(prog), expectWaves(prog, 1));
    expectIdentical(r.cp, r.ed, "8-lane packs");
    ASSERT_TRUE(r.cp.completed) << r.cp.note;
    EXPECT_TRUE(r.cp.compiled.fastForwarded) << r.cp.compiled.reason;
    EXPECT_TRUE(r.cp.compiled.replayed) << r.cp.compiled.reason;
  }

  const auto cond = core::compileSource(testing::conditionalSource(m));
  const run::StreamMap in = packed(cond);
  const auto errorOf = [&](SchedulerKind kind) {
    RunOptions o = expectWaves(cond, 1);
    o.scheduler = kind;
    try {
      machine::simulate(opt::fuseFifos(cond.graph), MachineConfig::unit(), in,
                        o);
    } catch (const ValueError& e) {
      return std::string(e.what());
    }
    return std::string("no ValueError");
  };
  const std::string ed = errorOf(SchedulerKind::EventDriven);
  EXPECT_NE(ed.find("lane"), std::string::npos) << ed;
  EXPECT_EQ(errorOf(SchedulerKind::Compiled), ed);
}

/// Figure 5's conditional: its gates are computed from input C.
struct Conditional {
  core::CompiledProgram prog;
  dfg::Graph lowered;
  run::StreamMap streams;
};

Conditional conditional(int m, unsigned seed) {
  Conditional c;
  c.prog = core::compile(core::frontend(testing::conditionalSource(m)));
  c.lowered = dfg::expandFifos(c.prog.graph);
  c.streams = figureInputs(c.prog, seed);
  return c;
}

TEST(CompiledFallback, GatedGraphFallsBackWithStructuredReason) {
  const Conditional c = conditional(16, 51);
  RunOptions opts;
  opts.expectedOutputs[c.prog.outputName] = c.prog.expectedOutputPerWave();
  const CompiledRun r =
      runCompiledVsEvent(c.lowered, MachineConfig::unit(), c.streams, opts);
  expectIdentical(r.cp, r.ed, "compiled fallback on data-dependent control");
  ASSERT_TRUE(r.cp.completed) << r.cp.note;
  EXPECT_TRUE(r.cp.compiled.requested);
  EXPECT_FALSE(r.cp.compiled.accepted);
  EXPECT_NE(r.cp.compiled.reason.find("declined (data-dependent-control)"),
            std::string::npos)
      << r.cp.compiled.reason;
  EXPECT_NE(r.cp.compiled.reason.find("falling back to event-driven"),
            std::string::npos)
      << r.cp.compiled.reason;
}

TEST(CompiledFallback, FeedbackSchemesFastForwardBitIdentical) {
  // Both for-iter schemes carry feedback cycles driven by compile-time loop
  // control: the compiled scheduler replays their steady windows and must
  // still match the event-driven run exactly.
  const int m = 512;
  for (ForIterScheme scheme : {ForIterScheme::Todd, ForIterScheme::Companion}) {
    CompileOptions copts;
    copts.forIterScheme = scheme;
    const auto prog =
        core::compile(core::frontend(testing::example2Source(m)), copts);
    const dfg::Graph lowered = dfg::expandFifos(prog.graph);
    val::ArrayMap in;
    in["A"] = randomArray({1, m}, 71, -0.8, 0.8);
    in["B"] = randomArray({1, m}, 72);
    const run::StreamMap streams = testing::inputsFor(prog, in);
    RunOptions opts;
    opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
    const CompiledRun r =
        runCompiledVsEvent(lowered, MachineConfig::unit(), streams, opts);
    expectIdentical(r.cp, r.ed, "compiled fast-forward on for-iter scheme");
    ASSERT_TRUE(r.cp.completed) << r.cp.note;
    EXPECT_TRUE(r.cp.compiled.accepted) << r.cp.compiled.reason;
    EXPECT_TRUE(r.cp.compiled.fastForwarded) << r.cp.compiled.reason;
  }
}

}  // namespace
}  // namespace valpipe

// FIFO-fusion suite: the opt::fuseFifos pass must coalesce exactly the
// chains that are provably plain buffering (and nothing else), and a fused
// graph must be indistinguishable from its expanded Id-chain twin at the
// outputs — same values, same output times — on every scheduler, while the
// schedulers stay bit-identical to each other on the fused graph itself.
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "dfg/lower.hpp"
#include "dfg/stats.hpp"
#include "generators.hpp"
#include "machine/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/rate_report.hpp"
#include "opt/fuse.hpp"
#include "testing.hpp"
#include "val/eval.hpp"

namespace valpipe {
namespace {

using core::CompileOptions;
using dfg::Graph;
using dfg::NodeId;
using dfg::Op;
using dfg::PortSrc;
using machine::MachineConfig;
using machine::MachineResult;
using machine::RunOptions;
using machine::SchedulerKind;
using testing::GenOptions;
using testing::ProgramGen;
using testing::randomArray;

int fifoNodeCount(const Graph& g) {
  int n = 0;
  for (NodeId id : g.ids())
    if (g.node(id).op == Op::Fifo) ++n;
  return n;
}

int soleFifoDepth(const Graph& g) {
  for (NodeId id : g.ids())
    if (g.node(id).op == Op::Fifo) return g.node(id).fifoDepth;
  return 0;
}

TEST(FuseFifos, CoalescesIdChainIntoOneComposite) {
  Graph g;
  const NodeId in = g.input("a", 4);
  PortSrc s = Graph::out(in);
  for (int i = 0; i < 3; ++i) s = Graph::out(g.identity(s));
  g.output("out", s);

  opt::FusionStats fs;
  const Graph fused = opt::fuseFifos(g, &fs);
  EXPECT_EQ(fs.chainsFused, 1u);
  EXPECT_EQ(fs.cellsAbsorbed, 2u);
  ASSERT_EQ(fused.size(), 3u);  // input, composite, output
  EXPECT_EQ(fifoNodeCount(fused), 1);
  EXPECT_EQ(soleFifoDepth(fused), 3);
}

TEST(FuseFifos, MergesBackToBackFifosAndInterveningIds) {
  Graph g;
  const NodeId in = g.input("a", 4);
  PortSrc s = g.fifo(Graph::out(in), 3);
  s = Graph::out(g.identity(s));
  s = g.fifo(s, 2);
  g.output("out", s);

  opt::FusionStats fs;
  const Graph fused = opt::fuseFifos(g, &fs);
  EXPECT_EQ(fs.chainsFused, 1u);
  EXPECT_EQ(fs.cellsAbsorbed, 2u);
  ASSERT_EQ(fused.size(), 3u);
  EXPECT_EQ(soleFifoDepth(fused), 6);  // 3 + 1 + 2 stages
}

TEST(FuseFifos, ChainBreaksAtMultiConsumerTap) {
  Graph g;
  const NodeId in = g.input("a", 4);
  const NodeId a = g.identity(Graph::out(in));
  const NodeId b = g.identity(Graph::out(a));
  g.output("out", Graph::out(b));
  g.output("tap", Graph::out(a));  // `a` feeds two consumers

  opt::FusionStats fs;
  const Graph fused = opt::fuseFifos(g, &fs);
  EXPECT_EQ(fs.chainsFused, 0u);
  EXPECT_EQ(fused.size(), g.size());
}

TEST(FuseFifos, ChainBreaksAtLoadTimeToken) {
  Graph g;
  const NodeId in = g.input("a", 4);
  const NodeId a = g.identity(Graph::out(in));
  PortSrc s = Graph::out(a);
  s.initial = Value(0.0);  // token preloaded on the interior arc
  const NodeId b = g.identity(s);
  g.output("out", Graph::out(b));

  opt::FusionStats fs;
  const Graph fused = opt::fuseFifos(g, &fs);
  EXPECT_EQ(fs.chainsFused, 0u);
  EXPECT_EQ(fused.size(), g.size());
}

TEST(FuseFifos, Idempotent) {
  Graph g;
  const NodeId in = g.input("a", 4);
  PortSrc s = Graph::out(in);
  for (int i = 0; i < 4; ++i) s = Graph::out(g.identity(s));
  g.output("out", s);

  const Graph once = opt::fuseFifos(g);
  opt::FusionStats fs;
  const Graph twice = opt::fuseFifos(once, &fs);
  EXPECT_EQ(fs.chainsFused, 0u);
  EXPECT_EQ(twice.size(), once.size());
  EXPECT_EQ(soleFifoDepth(twice), soleFifoDepth(once));
}

TEST(FuseFifos, CompileLowersFusedByDefaultAndExpandedOnRequest) {
  val::Module mod = core::frontend(testing::example1Source(16));

  CompileOptions fusedOpts;
  fusedOpts.lower = true;  // fuseFifos defaults to true
  const auto progF = core::compile(mod, fusedOpts);

  CompileOptions expandedOpts;
  expandedOpts.lower = true;
  expandedOpts.fuseFifos = false;
  const auto progE = core::compile(mod, expandedOpts);

  EXPECT_TRUE(dfg::isLowered(progE.graph));
  EXPECT_GT(fifoNodeCount(progF.graph), 0);
  EXPECT_LT(progF.graph.size(), progE.graph.size());
  // Same stage budget either way: composite depths add up to the Id cells.
  const dfg::GraphStats sf = dfg::computeStats(progF.graph);
  EXPECT_EQ(sf.cells, progE.graph.size());
}

/// --no-fuse must reproduce the pre-fusion pipeline exactly: compiling with
/// fuseFifos off is the same graph (and the same run, counter for counter)
/// as expanding an unlowered compile by hand.
TEST(FuseFifos, NoFusePathIsByteCompatibleWithManualExpansion) {
  const int m = 16;
  val::Module mod = core::frontend(testing::example1Source(m));
  CompileOptions off;
  off.lower = true;
  off.fuseFifos = false;
  const auto progOff = core::compile(mod, off);
  const auto progRaw = core::compile(mod);  // lower = false
  const Graph manual = dfg::expandFifos(progRaw.graph);
  ASSERT_EQ(progOff.graph.size(), manual.size());

  val::ArrayMap in;
  in["B"] = randomArray({0, m + 1}, 41);
  in["C"] = randomArray({0, m + 1}, 42);
  RunOptions opts;
  opts.expectedOutputs[progRaw.outputName] = progRaw.expectedOutputPerWave();
  const MachineResult a =
      machine::simulate(progOff.graph, MachineConfig::unit(),
                        testing::inputsFor(progOff, in), opts);
  const MachineResult b = machine::simulate(manual, MachineConfig::unit(),
                                            testing::inputsFor(progRaw, in),
                                            opts);
  testing::expectIdentical(a, b, "--no-fuse vs manual expandFifos");
}

val::ArrayMap genInputs(const val::Module& mod, unsigned seed) {
  val::ArrayMap in;
  unsigned k = 0;
  for (const val::Param& p : mod.params)
    in[p.name] = randomArray(*p.type.range, seed + 100 * k++, 0.0, 1.0);
  return in;
}

class FusionEquivalence : public ::testing::TestWithParam<int> {};

/// On random pipe-structured programs, every scheduler must be bit-identical
/// on the fused graph, and the fused graph must match the expanded one at
/// the outputs — values and times — under both timing profiles.
TEST_P(FusionEquivalence, FusedBitIdenticalAcrossSchedulersAndMatchesExpanded) {
  const int p = GetParam();
  GenOptions gopts;
  gopts.blocks = 1 + p % 3;
  gopts.m = 8 + p % 5;
  ProgramGen gen(static_cast<unsigned>(p) * 353 + 17, gopts);
  const std::string src = gen.module();
  SCOPED_TRACE(src);

  val::Module mod = core::frontend(src);
  const val::ArrayMap in = genInputs(mod, static_cast<unsigned>(p));
  const auto prog = core::compile(mod);
  opt::FusionStats fs;
  const Graph fused = opt::fuseFifos(prog.graph, &fs);
  const Graph expanded = dfg::expandFifos(prog.graph);
  const run::StreamMap streams = testing::inputsFor(prog, in);

  for (const MachineConfig& cfg :
       {MachineConfig::unit(), MachineConfig::hardware()}) {
    RunOptions opts;
    opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();

    opts.scheduler = SchedulerKind::Reference;
    const MachineResult ref = machine::simulate(fused, cfg, streams, opts);
    ASSERT_TRUE(ref.completed) << ref.note;
    for (const SchedulerKind kind :
         {SchedulerKind::EventDriven, SchedulerKind::Compiled}) {
      opts.scheduler = kind;
      const MachineResult got = machine::simulate(fused, cfg, streams, opts);
      testing::expectIdentical(got, ref, "fused scheduler equivalence");
    }

    opts.scheduler = SchedulerKind::Reference;
    const MachineResult exp = machine::simulate(expanded, cfg, streams, opts);
    ASSERT_TRUE(exp.completed) << exp.note;
    EXPECT_EQ(ref.outputs, exp.outputs) << "fused vs expanded outputs";
    EXPECT_EQ(ref.outputTimes, exp.outputTimes)
        << "fused vs expanded output times";
    EXPECT_EQ(ref.amFinal, exp.amFinal) << "fused vs expanded amFinal";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionEquivalence, ::testing::Range(0, 12));

TEST(FuseFifos, AuditorCertifiesFusedGraphAtRateHalf) {
  const int m = 128;
  val::Module mod = core::frontend(testing::example1Source(m));
  const auto prog = core::compile(mod);
  const Graph fused = opt::fuseFifos(prog.graph);
  val::ArrayMap in;
  in["B"] = randomArray({0, m + 1}, 51);
  in["C"] = randomArray({0, m + 1}, 52);

  obs::MetricsSink metrics;
  RunOptions opts;
  opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
  opts.metrics = &metrics;
  const MachineResult res = machine::simulate(
      fused, MachineConfig::unit(), testing::inputsFor(prog, in), opts);
  ASSERT_TRUE(res.completed) << res.note;

  const obs::RateReport report = obs::auditMaxPipelining(fused, metrics);
  EXPECT_TRUE(report.fullyPipelined) << report.line();
}

}  // namespace
}  // namespace valpipe

// Static-schedule IR (sched/schedule.hpp): hyper-period and ASAP slot
// computation on accepted graphs, per-arc steady-state buffer offsets, and
// the acceptance-by-control-source rule with its value paths and structured
// declines, which the compiled scheduler's fallback (and valc
// --explain-schedule) report.  Also pins the phase-split contract:
// core::compile() equals the composition of the named phases.
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "core/phases.hpp"
#include "dfg/graph.hpp"
#include "dfg/lower.hpp"
#include "exec/executable_graph.hpp"
#include "opt/fuse.hpp"
#include "sched/schedule.hpp"
#include "sched/steady_loop.hpp"
#include "testing.hpp"

namespace valpipe {
namespace {

using dfg::Graph;
using dfg::Op;
using dfg::PortSrc;
using sched::computeSteadySchedule;
using sched::Decline;
using sched::SteadySchedule;

/// Figure 2's three-stage pipeline: two sources, a shared first stage, a
/// balanced reconvergence, one output.
Graph figure2Graph(std::int64_t n = 16) {
  Graph g;
  const auto a = g.input("a", n);
  const auto b = g.input("b", n);
  const auto y = g.binary(Op::Mul, Graph::out(a), Graph::out(b), "y");
  const auto p = g.binary(Op::Add, Graph::out(y), Graph::lit(Value(2.0)), "p");
  const auto q = g.binary(Op::Sub, Graph::out(y), Graph::lit(Value(3.0)), "q");
  const auto r = g.binary(Op::Mul, Graph::out(p), Graph::out(q), "r");
  g.output("x", Graph::out(r));
  return g;
}

/// Every arc's producer must precede its consumer in topo order.
void expectTopological(const exec::ExecutableGraph& eg,
                       const SteadySchedule& s) {
  ASSERT_EQ(s.topo.size(), eg.size());
  std::vector<std::size_t> pos(eg.size());
  for (std::size_t i = 0; i < s.topo.size(); ++i) pos[s.topo[i]] = i;
  for (std::uint32_t c = 0; c < eg.size(); ++c) {
    const exec::Cell& cell = eg.cell(c);
    for (int p = 0; p < cell.numPorts; ++p) {
      const exec::Operand& o = eg.operand(cell, p);
      if (!o.isLiteral()) {
        EXPECT_LT(pos[o.producer], pos[c])
            << "arc " << o.producer << " -> " << c;
      }
    }
  }
}

TEST(SchedIr, AcceptsBalancedPipelineWithAsapSlots) {
  const Graph g = figure2Graph();
  const exec::ExecutableGraph eg(g);
  const SteadySchedule s = computeSteadySchedule(eg);
  ASSERT_TRUE(s.accepted) << s.detail;
  EXPECT_EQ(s.decline, Decline::None);
  EXPECT_EQ(s.hyperPeriod, 2);
  EXPECT_EQ(s.depthMax, 4);  // sources(0) -> y(1) -> p,q(2) -> r(3) -> out(4)

  ASSERT_EQ(s.slot.size(), eg.size());
  std::vector<std::int64_t> bySlot(5, 0);
  for (std::uint32_t c = 0; c < eg.size(); ++c) {
    ASSERT_GE(s.slot[c], 0);
    ASSERT_LE(s.slot[c], 4);
    ++bySlot[static_cast<std::size_t>(s.slot[c])];
    EXPECT_EQ(s.phase[c], s.slot[c] % 2);
  }
  // Two sources at slot 0, one cell each at 1/3/4, the balanced pair at 2.
  EXPECT_EQ(bySlot, (std::vector<std::int64_t>{2, 1, 2, 1, 1}));

  // Plain arcs all carry one token of steady-state buffering.
  for (std::uint32_t c = 0; c < eg.size(); ++c) {
    const exec::Cell& cell = eg.cell(c);
    for (int p = 0; p < cell.numPorts; ++p)
      if (!eg.operand(cell, p).isLiteral()) {
        EXPECT_EQ(s.arcOffset[eg.slotOf(cell, p)], 1);
      }
  }
  expectTopological(eg, s);
}

TEST(SchedIr, CompositeFifoOccupiesItsDepthInSlots) {
  // a -> id -> id -> (+) <- FIFO[2] <- a : the depth-2 ring buffer balances
  // the two-stage identity chain, so the adder's operands reconverge evenly.
  Graph g;
  const auto a = g.input("a", 8);
  const auto i1 = g.identity(Graph::out(a), "i1");
  const auto i2 = g.identity(Graph::out(i1), "i2");
  const PortSrc buf = g.fifo(Graph::out(a), 2, "buf");
  const auto sum = g.binary(Op::Add, Graph::out(i2), buf, "sum");
  g.output("x", Graph::out(sum));

  const exec::ExecutableGraph eg(g);
  const SteadySchedule s = computeSteadySchedule(eg);
  ASSERT_TRUE(s.accepted) << s.detail;

  for (std::uint32_t c = 0; c < eg.size(); ++c) {
    const exec::Cell& cell = eg.cell(c);
    if (cell.op == Op::Fifo && cell.fifoDepth >= 2) {
      EXPECT_EQ(cell.fifoDepth, 2);
      EXPECT_EQ(s.slot[c], 2);  // source slot 0 + the two buffered stages
      EXPECT_EQ(s.arcOffset[eg.slotOf(cell, 0)], 2);
    }
    if (cell.op == Op::Add) {
      EXPECT_EQ(s.slot[c], 3);
    }
  }
  expectTopological(eg, s);
}

TEST(SchedIr, ExplainListsScheduleTable) {
  const exec::ExecutableGraph eg(figure2Graph());
  const SteadySchedule s = computeSteadySchedule(eg);
  const std::string text = s.explain(eg);
  EXPECT_NE(text.find("steady schedule: accepted"), std::string::npos) << text;
  EXPECT_NE(text.find("hyper-period: 2"), std::string::npos) << text;
  EXPECT_NE(text.find("pipeline depth: 4 stages"), std::string::npos) << text;
  EXPECT_NE(text.find("IN a"), std::string::npos) << text;
  EXPECT_NE(text.find("OUT x"), std::string::npos) << text;
}

/// Compile-time control sends a graph to the replay value path: accepted,
/// with `detail` naming the construct that rules out the straight-line loop.
void expectReplay(const Graph& g, const std::string& why) {
  const exec::ExecutableGraph eg(g);
  const SteadySchedule s = computeSteadySchedule(eg);
  ASSERT_TRUE(s.accepted) << s.detail;
  EXPECT_EQ(s.decline, Decline::None);
  EXPECT_EQ(s.path, sched::ValuePath::Replay);
  EXPECT_TRUE(s.topo.empty());
  EXPECT_NE(s.detail.find(why), std::string::npos) << s.detail;
  const std::string text = s.explain(eg);
  EXPECT_NE(text.find("steady schedule: accepted, replay"), std::string::npos)
      << text;
}

TEST(SchedIr, DeclinesGatedDelivery) {
  Graph g;
  const auto a = g.input("a", 8);
  const auto ctl = g.boolSeq(dfg::BoolPattern::uniform(true, 8), "ctl");
  const auto gid = g.gatedIdentity(Graph::out(a), Graph::out(ctl), "gid");
  g.output("x", Graph::outT(gid));
  expectReplay(g, "routes results by a compile-time gate");
  const exec::ExecutableGraph eg(g);
  const SteadySchedule s = computeSteadySchedule(eg);
  ASSERT_EQ(s.controlSlots.size(), 1u);
  const std::string text = s.explain(eg);
  EXPECT_NE(text.find("(ID) gate <- "), std::string::npos) << text;
  EXPECT_NE(text.find("sources: cell"), std::string::npos) << text;
  EXPECT_NE(text.find("(BSEQ)"), std::string::npos) << text;
}

TEST(SchedIr, DeclinesDataDependentMerge) {
  Graph g;
  const auto ctl = g.boolSeq(dfg::BoolPattern::uniform(true, 8), "ctl");
  const auto t = g.input("t", 8);
  const auto f = g.input("f", 8);
  const auto m = g.merge(Graph::out(ctl), Graph::out(t), Graph::out(f), "m");
  g.output("x", Graph::out(m));
  expectReplay(g, "merges by a compile-time selector");
}

TEST(SchedIr, DeclinesDataDependentControl) {
  // §5's conditional: the gate is computed from the data, so the routing —
  // and with it the firing pattern — follows the input.
  Graph g;
  const auto a = g.input("a", 8);
  const auto pos = g.binary(Op::Gt, Graph::out(a), Graph::lit(Value(0.0)),
                            "pos");
  const auto gid = g.gatedIdentity(Graph::out(a), Graph::out(pos), "gid");
  g.output("x", Graph::outT(gid));
  const exec::ExecutableGraph eg(g);
  const SteadySchedule s = computeSteadySchedule(eg);
  ASSERT_FALSE(s.accepted);
  EXPECT_EQ(s.decline, Decline::DataDependentControl);
  EXPECT_NE(s.detail.find("gate depends on"), std::string::npos) << s.detail;
  EXPECT_NE(s.detail.find("(IN a)"), std::string::npos) << s.detail;
  const std::string text = s.explain(eg);
  EXPECT_NE(text.find("declined (data-dependent-control)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("falls back to event-driven"), std::string::npos) << text;
}

TEST(SchedIr, DeclinesArrayMemoryTraffic) {
  Graph g;
  const auto a = g.input("a", 8);
  g.amStore("A", Graph::out(a));
  const auto f = g.amFetch("A", 8);
  g.output("x", Graph::out(f));
  const SteadySchedule s = computeSteadySchedule(exec::ExecutableGraph(g));
  ASSERT_FALSE(s.accepted);
  EXPECT_EQ(s.decline, Decline::ArrayMemory);
}

TEST(SchedIr, DeclinesFeedbackCycle) {
  Graph g;
  const auto a = g.input("a", 8);
  const auto fwd = g.binary(Op::Add, Graph::out(a), Graph::lit(Value(0.0)),
                            "fwd");
  const auto back = g.identity(Graph::out(fwd), "back");
  g.node(fwd).inputs[1] = Graph::out(back);  // close the loop: fwd <-> back
  g.output("x", Graph::out(fwd));
  expectReplay(g, "sits on a feedback cycle");
}

TEST(SchedIr, DeclinesInitialToken) {
  Graph g;
  const auto a = g.input("a", 8);
  PortSrc boot = Graph::out(a);
  boot.initial = Value(1.0);  // load-time token (counter bootstrap, §2)
  const auto c = g.binary(Op::Add, boot, Graph::lit(Value(0.0)), "c");
  g.output("x", Graph::out(c));
  expectReplay(g, "carries a load-time token");
}

TEST(SchedIr, DeclinesUnbalancedReconvergence) {
  Graph g;
  const auto a = g.input("a", 8);
  const auto i1 = g.identity(Graph::out(a), "i1");
  const auto sum = g.binary(Op::Add, Graph::out(i1), Graph::out(a), "sum");
  g.output("x", Graph::out(sum));
  expectReplay(g, "reconverges operands at unequal depth");
}

TEST(SchedIr, CompiledValProgramYieldsAcceptedSchedule) {
  // The balancer's FIFO plus opt::fuseFifos' composite ring keep the graph
  // in the accepted class end to end from Val source.
  const std::string src = R"(const m = 16
function f(A, B: array[real] [1, m] returns array[real])
  forall i in [1, m]
  construct 0.5 * (A[i] + B[i]) * A[i]
  endall
endfun
)";
  const auto prog = core::compileSource(src);
  const dfg::Graph lowered = opt::fuseFifos(prog.graph);
  const exec::ExecutableGraph eg(lowered);
  const SteadySchedule s = computeSteadySchedule(eg);
  ASSERT_TRUE(s.accepted) << s.detail;
  EXPECT_EQ(s.hyperPeriod, 2);
  expectTopological(eg, s);
}

TEST(SchedIr, SteadyLoopReproducesElementwiseValues) {
  const Graph g = figure2Graph(8);
  const exec::ExecutableGraph eg(g);
  const SteadySchedule s = computeSteadySchedule(eg);
  ASSERT_TRUE(s.accepted);

  const std::vector<Value> a = {Value(1.0), Value(2.0), Value(3.0), Value(4.0),
                                Value(5.0), Value(6.0), Value(7.0), Value(8.0)};
  const std::vector<Value> b = {Value(2.0), Value(2.0), Value(2.0), Value(2.0),
                                Value(3.0), Value(3.0), Value(3.0), Value(3.0)};
  sched::SteadyLoop loop(eg, s);
  std::uint32_t rCell = UINT32_MAX;
  for (std::uint32_t c = 0; c < eg.size(); ++c) {
    const exec::Cell& cell = eg.cell(c);
    if (cell.op == Op::Input)
      loop.bindSource(c, eg.streamName(cell) == std::string("a") ? &a : &b);
    if (cell.op == Op::Output) rCell = eg.operand(cell, 0).producer;
  }
  ASSERT_NE(rCell, UINT32_MAX);
  loop.request(rCell, 0, 8);
  loop.compute();
  EXPECT_TRUE(loop.vectorized());
  for (std::int64_t k = 0; k < 8; ++k) {
    const double y = a[static_cast<std::size_t>(k)].asReal() *
                     b[static_cast<std::size_t>(k)].asReal();
    EXPECT_DOUBLE_EQ(loop.value(rCell, k).asReal(), (y + 2.0) * (y - 3.0));
  }
}

TEST(PhaseSplit, ComposedPhasesMatchMonolithicCompile) {
  const std::string src = testing::example1Source(12);
  core::CompileOptions opts;
  opts.lower = true;  // exercise the full pipeline including chain fusion

  const val::Module m = core::frontend(src);
  core::CompiledProgram staged = core::phases::buildGraph(m, opts);
  core::phases::normalize(staged, opts);
  core::phases::balance(staged, opts);
  core::phases::lower(staged, opts);

  const core::CompiledProgram direct = core::compile(m, opts);
  EXPECT_EQ(staged.graph.size(), direct.graph.size());
  EXPECT_EQ(staged.balance.buffersInserted, direct.balance.buffersInserted);
  EXPECT_EQ(staged.balance.fifoNodes, direct.balance.fifoNodes);
  ASSERT_TRUE(staged.fusion.has_value());
  ASSERT_TRUE(direct.fusion.has_value());
  EXPECT_EQ(staged.outputName, direct.outputName);
  EXPECT_EQ(staged.blocks.size(), direct.blocks.size());
}

}  // namespace
}  // namespace valpipe

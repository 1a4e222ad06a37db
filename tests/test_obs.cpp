// Observability subsystem (src/obs/): the §3 max-pipelining auditor and the
// cross-scheduler trace determinism contract.
//
// The auditor must certify the balanced Figure 2 pipeline, flag a
// deliberately unbalanced reconvergence by name with a structural
// explanation, and pass again once core::balanceGraph repairs the graph.
// The trace contract: Fire / Result / Ack streams are identical across
// every SchedulerKind; FuDenied additionally matches between EventDriven and
// Compiled, which runs the same event loop whenever a sink is attached.
#include "testing.hpp"

#include <sstream>

#include "core/balance.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/rate_report.hpp"
#include "obs/trace.hpp"

namespace valpipe {
namespace {

using dfg::Graph;
using dfg::Op;

/// Figure 2's machine code: MULT feeding ADD and SUB, reconverging in MULT.
/// Balanced by construction — both paths cell1 -> cell4 are two stages.
Graph figure2Graph(std::int64_t n) {
  Graph g;
  const auto a = g.input("a", n);
  const auto b = g.input("b", n);
  const auto y =
      g.binary(Op::Mul, Graph::out(a), Graph::out(b), "cell1");
  const auto p = g.binary(Op::Add, Graph::out(y),
                          Graph::lit(Value(2.0)), "cell2");
  const auto q = g.binary(Op::Sub, Graph::out(y),
                          Graph::lit(Value(3.0)), "cell3");
  const auto r =
      g.binary(Op::Mul, Graph::out(p), Graph::out(q), "cell4");
  g.output("x", Graph::out(r));
  return g;
}

/// Figure 2 with the SUB arm removed: y reaches the final MULT both directly
/// and through the ADD, so the direct arc is one stage short and the
/// capacity-1 acknowledge discipline cannot sustain the period-2 rate.
Graph unbalancedGraph(std::int64_t n) {
  Graph g;
  const auto a = g.input("a", n);
  const auto b = g.input("b", n);
  const auto y = g.binary(Op::Mul, Graph::out(a), Graph::out(b), "y");
  const auto p = g.binary(Op::Add, Graph::out(y),
                          Graph::lit(Value(2.0)), "stage2");
  const auto r =
      g.binary(Op::Mul, Graph::out(p), Graph::out(y), "join");
  g.output("x", Graph::out(r));
  return g;
}

run::StreamMap figure2Inputs(std::int64_t n) {
  run::StreamMap in;
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (const char* name : {"a", "b"}) {
    std::vector<Value> v;
    for (std::int64_t i = 0; i < n; ++i) v.push_back(Value(dist(rng)));
    in[name] = std::move(v);
  }
  return in;
}

machine::MachineResult runWithSinks(const Graph& lowered,
                                    obs::MetricsSink* metrics,
                                    obs::TraceSink* trace,
                                    machine::SchedulerKind kind,
                                    machine::MachineConfig cfg =
                                        machine::MachineConfig::unit()) {
  machine::RunOptions opts;
  opts.scheduler = kind;
  opts.metrics = metrics;
  opts.trace = trace;
  const std::int64_t len = 256;
  opts.expectedOutputs["x"] = len;
  return machine::simulate(lowered, cfg, figure2Inputs(len), opts);
}

TEST(RateAuditor, CertifiesBalancedFigure2) {
  const Graph g = figure2Graph(256);
  obs::MetricsSink metrics;
  const auto res = runWithSinks(g, &metrics, nullptr,
                                machine::SchedulerKind::EventDriven);
  ASSERT_TRUE(res.completed) << res.note;

  const obs::RateReport report = obs::auditMaxPipelining(g, metrics);
  EXPECT_TRUE(report.fullyPipelined) << report.line();
  EXPECT_EQ(report.offenders.size(), 0u);
  EXPECT_GT(report.auditedCells, 0u);
  EXPECT_NE(report.line().find("fully pipelined: yes"), std::string::npos);

  // Theorem 1 at cell granularity: every compute cell settles at period 2.
  for (std::uint32_t c = 0; c < g.size(); ++c) {
    const std::int64_t period = metrics.steadyPeriod(c);
    if (period < 0) continue;
    EXPECT_LE(period, 2) << obs::cellDisplayName(g, c);
  }
}

TEST(RateAuditor, MetricsFiringsMatchEngineFirings) {
  const Graph g = figure2Graph(256);
  obs::MetricsSink metrics;
  const auto res = runWithSinks(g, &metrics, nullptr,
                                machine::SchedulerKind::EventDriven);
  ASSERT_TRUE(res.completed) << res.note;
  ASSERT_EQ(metrics.cellCount(), res.firings.size());
  for (std::uint32_t c = 0; c < res.firings.size(); ++c)
    EXPECT_EQ(metrics.cell(c).firings, res.firings[c]) << "cell " << c;
}

TEST(RateAuditor, FlagsUnbalancedReconvergenceByName) {
  const Graph g = unbalancedGraph(256);
  obs::MetricsSink metrics;
  const auto res = runWithSinks(g, &metrics, nullptr,
                                machine::SchedulerKind::EventDriven);
  ASSERT_TRUE(res.completed) << res.note;

  const obs::RateReport report = obs::auditMaxPipelining(g, metrics);
  EXPECT_FALSE(report.fullyPipelined);
  ASSERT_FALSE(report.offenders.empty());
  EXPECT_NE(report.line().find("fully pipelined: NO"), std::string::npos);

  // The structural diagnosis must name the short arc into the join.
  bool foundPath = false;
  for (const std::string& d : report.diagnosis)
    if (d.find("unbalanced path") != std::string::npos &&
        d.find("y") != std::string::npos &&
        d.find("join") != std::string::npos)
      foundPath = true;
  EXPECT_TRUE(foundPath) << report.line();

  // print() renders the line plus indented diagnosis.
  std::ostringstream ss;
  report.print(ss);
  EXPECT_NE(ss.str().find("unbalanced path"), std::string::npos);
}

TEST(RateAuditor, BalancingRepairsTheUnbalancedGraph) {
  Graph g = unbalancedGraph(256);
  core::balanceGraph(g, core::BalanceMode::Optimal);
  const Graph lowered = dfg::expandFifos(g);

  obs::MetricsSink metrics;
  const auto res = runWithSinks(lowered, &metrics, nullptr,
                                machine::SchedulerKind::EventDriven);
  ASSERT_TRUE(res.completed) << res.note;
  const obs::RateReport report = obs::auditMaxPipelining(lowered, metrics);
  EXPECT_TRUE(report.fullyPipelined) << report.line();
}

TEST(Trace, IdenticalAcrossAllSchedulersUnderUnitProfile) {
  const Graph g = figure2Graph(256);

  obs::TraceSink ref, ed, compiled;
  runWithSinks(g, nullptr, &ref, machine::SchedulerKind::Reference);
  runWithSinks(g, nullptr, &ed, machine::SchedulerKind::EventDriven);
  runWithSinks(g, nullptr, &compiled, machine::SchedulerKind::Compiled);
  ASSERT_TRUE(ref.sealed());
  ASSERT_TRUE(ed.sealed());
  ASSERT_TRUE(compiled.sealed());
  ASSERT_FALSE(ed.events().empty());

  // Unit profile has unlimited units, so no FuDenied events exist and the
  // full streams must match across every scheduler.
  EXPECT_TRUE(obs::TraceSink::sameSchedule(ref, ed));
  EXPECT_TRUE(obs::TraceSink::sameSchedule(compiled, ed));
}

TEST(Trace, FuDeniedMatchesBetweenEventDrivenAndCompiled) {
  const Graph g = figure2Graph(256);
  // One FPU forces contention: every firing competes for the single unit.
  const machine::MachineConfig cfg = machine::MachineConfig::hardware(1, 1, 1);

  obs::TraceSink ed;
  const auto resEd = runWithSinks(g, nullptr, &ed,
                                  machine::SchedulerKind::EventDriven, cfg);
  ASSERT_TRUE(resEd.completed) << resEd.note;

  bool sawDenied = false;
  for (const obs::Event& e : ed.events())
    if (e.kind == obs::EventKind::FuDenied) sawDenied = true;
  EXPECT_TRUE(sawDenied) << "contention config produced no FuDenied events";

  obs::TraceSink compiled;
  const auto resCompiled = runWithSinks(
      g, nullptr, &compiled, machine::SchedulerKind::Compiled, cfg);
  ASSERT_TRUE(resCompiled.completed) << resCompiled.note;
  EXPECT_TRUE(obs::TraceSink::sameSchedule(ed, compiled));
}

TEST(Trace, ChromeExportAndMetricsJsonAreWellFormedSmoke) {
  const Graph g = figure2Graph(256);
  obs::TraceSink trace;
  obs::MetricsSink metrics;
  runWithSinks(g, &metrics, &trace, machine::SchedulerKind::EventDriven);

  std::ostringstream chrome;
  obs::writeChromeTrace(chrome, trace);
  EXPECT_NE(chrome.str().find("traceEvents"), std::string::npos);
  EXPECT_NE(chrome.str().find("cell1"), std::string::npos);

  std::ostringstream json;
  metrics.writeJson(json, &trace.meta());
  EXPECT_NE(json.str().find("\"scheduler\": \"EventDriven\""),
            std::string::npos);
  EXPECT_NE(json.str().find("cell1"), std::string::npos);
  EXPECT_NE(json.str().find("steady_period"), std::string::npos);
}

}  // namespace
}  // namespace valpipe

// Compiler-level tests: options, scheme selection, data-dependent
// conditionals, memory routing, pruning, balance modes and error paths.
#include <gtest/gtest.h>

#include "analysis/paths.hpp"
#include "core/phases.hpp"
#include "dfg/stats.hpp"
#include "dfg/validate.hpp"
#include "testing.hpp"

namespace valpipe {
namespace {

using core::ArrayRouting;
using core::BalanceMode;
using core::CompileOptions;
using core::CompiledProgram;
using core::ForallScheme;
using core::ForIterScheme;
using testing::checkInterpreted;
using testing::checkMachine;
using testing::randomArray;

TEST(Compiler, CompiledGraphIsValidatedAndBalanced) {
  const auto prog = core::compileSource(testing::example1Source(16));
  EXPECT_TRUE(dfg::validate(prog.graph).ok());
  const auto rep = analysis::checkBalanced(prog.graph);
  EXPECT_TRUE(rep.balanced) << rep.reason;
  EXPECT_GT(prog.balance.buffersInserted, 0u);
  EXPECT_EQ(prog.outputName, "result");
  EXPECT_EQ(prog.outputRange, (val::Range{0, 17}));
}

TEST(Compiler, BalanceNoneLeavesSkewUnbuffered) {
  CompileOptions none;
  none.balanceMode = BalanceMode::None;
  const auto prog = core::compileSource(testing::example1Source(16), none);
  EXPECT_EQ(prog.balance.buffersInserted, 0u);
  EXPECT_FALSE(analysis::checkBalanced(prog.graph).balanced);
}

TEST(Compiler, OptimalNeverBuffersMoreThanLongestPath) {
  for (const char* src : {"ex1", "ex2", "fig3"}) {
    const std::string source = std::string(src) == "ex1"
                                   ? testing::example1Source(16)
                               : std::string(src) == "ex2"
                                   ? testing::example2Source(16)
                                   : testing::figure3Source(16);
    CompileOptions lp, opt;
    lp.balanceMode = BalanceMode::LongestPath;
    opt.balanceMode = BalanceMode::Optimal;
    const auto a = core::compileSource(source, lp);
    const auto b = core::compileSource(source, opt);
    EXPECT_LE(b.balance.buffersInserted, a.balance.buffersInserted) << src;
    EXPECT_TRUE(analysis::checkBalanced(a.graph).balanced) << src;
    EXPECT_TRUE(analysis::checkBalanced(b.graph).balanced) << src;
  }
}

TEST(Compiler, LongestPathModeStillRunsAtFullRate) {
  const int m = 63;
  val::Module mod = core::frontend(testing::example1Source(m));
  val::ArrayMap in;
  in["B"] = randomArray({0, m + 1}, 21);
  in["C"] = randomArray({0, m + 1}, 22);
  const auto ref = val::evaluate(mod, in);
  CompileOptions opts;
  opts.balanceMode = BalanceMode::LongestPath;
  const auto prog = core::compile(mod, opts);
  checkMachine(prog, in, ref.result.elems, 0.0, 2, 0.45, 0.5);
}

TEST(Compiler, DataDependentConditional) {
  const int m = 24;
  const std::string src = "const m = " + std::to_string(m) + "\n" + R"(
function f(A, B, C: array[real] [0, m] returns array[real])
  forall i in [0, m]
  construct if C[i] > 0. then -(A[i] + B[i])
            else 5. * (A[i] * B[i] + 2.) endif
  endall
endfun
)";
  val::Module mod = core::frontend(src);
  val::ArrayMap in;
  in["A"] = randomArray({0, m}, 31);
  in["B"] = randomArray({0, m}, 32);
  in["C"] = randomArray({0, m}, 33);  // mixed signs
  const auto ref = val::evaluate(mod, in);
  const auto prog = core::compile(mod);
  checkInterpreted(prog, in, ref.result.elems);
  // Fig. 5: balanced conditional arms sustain the full rate.
  checkMachine(prog, in, ref.result.elems, 0.0, 4, 0.45, 0.5);
}

TEST(Compiler, NestedConditionals) {
  const int m = 16;
  const std::string src = "const m = " + std::to_string(m) + "\n" + R"(
function f(A, B: array[real] [0, m] returns array[real])
  forall i in [0, m]
  construct if i < 4 then A[i]
            else if B[i] > 0. then A[i] * 2. else 1. - B[i] endif endif
  endall
endfun
)";
  val::Module mod = core::frontend(src);
  val::ArrayMap in;
  in["A"] = randomArray({0, m}, 41);
  in["B"] = randomArray({0, m}, 42);
  const auto ref = val::evaluate(mod, in);
  const auto prog = core::compile(mod);
  checkInterpreted(prog, in, ref.result.elems);
  checkMachine(prog, in, ref.result.elems);
}

TEST(Compiler, IndexVariableAsValue) {
  const int m = 12;
  const std::string src = "const m = " + std::to_string(m) + "\n" + R"(
function f(A: array[real] [0, m] returns array[real])
  forall i in [0, m] construct A[i] * (0.5 * i) endall
endfun
)";
  val::Module mod = core::frontend(src);
  val::ArrayMap in;
  in["A"] = randomArray({0, m}, 51);
  const auto ref = val::evaluate(mod, in);
  const auto prog = core::compile(mod);
  checkInterpreted(prog, in, ref.result.elems);
}

TEST(Compiler, ConstantBlockIsMetered) {
  const std::string src = R"(
const m = 6
function f(A: array[real] [0, m] returns array[real])
  forall i in [0, m] construct 2.5 endall
endfun
)";
  val::Module mod = core::frontend(src);
  val::ArrayMap in;
  in["A"] = randomArray({0, 6}, 61);
  const auto prog = core::compile(mod);
  checkInterpreted(prog, in, std::vector<Value>(7, Value(2.5)));
}

TEST(Compiler, ParallelSchemeMatchesPipeline) {
  const int m = 10;
  val::Module mod = core::frontend(testing::example1Source(m));
  val::ArrayMap in;
  in["B"] = randomArray({0, m + 1}, 71);
  in["C"] = randomArray({0, m + 1}, 72);
  const auto ref = val::evaluate(mod, in);

  CompileOptions par;
  par.forallScheme = ForallScheme::Parallel;
  const auto prog = core::compile(mod, par);
  EXPECT_EQ(prog.blocks[0].scheme, "forall/parallel");
  checkInterpreted(prog, in, ref.result.elems);

  // The parallel scheme replicates the body: far more cells than the
  // pipeline scheme (§6: "of limited interest" for streams).
  const auto pipe = core::compile(mod);
  EXPECT_GT(dfg::computeStats(prog.graph).cells,
            3 * dfg::computeStats(pipe.graph).cells);
}

TEST(Compiler, MemoryRoutingThreadsArrayMemory) {
  const int m = 12;
  val::Module mod = core::frontend(testing::figure3Source(m));
  val::ArrayMap in;
  in["B"] = randomArray({0, m + 1}, 81);
  in["C"] = randomArray({0, m + 1}, 82);
  in["A2"] = randomArray({1, m}, 83, -0.9, 0.9);
  const auto ref = val::evaluate(mod, in);

  CompileOptions mem;
  mem.routing = ArrayRouting::Memory;
  const auto prog = core::compile(mod, mem);
  const auto stats = dfg::computeStats(prog.graph);
  EXPECT_GE(stats.byOp.at(dfg::Op::AmStore), 2u);
  EXPECT_GE(stats.byOp.at(dfg::Op::AmFetch), 2u);
  checkInterpreted(prog, in, ref.result.elems, 1e-9);
}

TEST(Compiler, PruneRemovesUnusedDefinitions) {
  const std::string src = R"(
const m = 8
function f(A: array[real] [0, m] returns array[real])
  forall i in [0, m]
    unused : real := A[i] * 100.;
    used : real := A[i] + 1.
  construct used endall
endfun
)";
  const val::Module mod = core::frontend(src);
  const CompileOptions opts;
  const auto kept = core::phases::buildGraph(mod, opts);
  auto pruned = core::phases::buildGraph(mod, opts);
  core::phases::normalize(pruned, opts);
  EXPECT_LT(pruned.graph.size(), kept.graph.size());
}

TEST(Compiler, ScalarParamsNeedBindings) {
  const std::string src = R"(
const m = 4
function f(A: array[real] [0, m]; k: real returns array[real])
  forall i in [0, m] construct A[i] * k endall
endfun
)";
  EXPECT_THROW(core::compileSource(src), CompileError);

  CompileOptions opts;
  opts.scalarBindings["k"] = Value(3.0);
  const auto prog = core::compileSource(src, opts);
  val::ArrayMap in;
  in["A"] = randomArray({0, 4}, 91);
  std::vector<Value> want;
  for (const Value& v : in["A"].elems) want.push_back(ops::mul(v, Value(3.0)));
  checkInterpreted(prog, in, want);
}

TEST(Compiler, RejectsNonPipeStructured) {
  // Loop array read with the wrong offset: outside the supported class.
  const std::string src = R"(
const m = 8
function f(A: array[real] [1, m] returns array[real])
  for i : integer := 1; T : array[real] := [0: 0]
  do if i < m + 1 then iter T := T[i: T[i] + A[i]]; i := i + 1 enditer
     else T endif
  endfor
endfun
)";
  EXPECT_THROW(core::compileSource(src), CompileError);
}

TEST(Compiler, PredictedRatesReported) {
  CompileOptions todd;
  todd.forIterScheme = ForIterScheme::Todd;
  const auto progT = core::compileSource(testing::example2Source(16), todd);
  EXPECT_NEAR(progT.predictedRate(), 1.0 / 3.0, 1e-9);

  const auto progC = core::compileSource(testing::example2Source(16));
  EXPECT_NEAR(progC.predictedRate(), 0.5, 1e-9);  // Auto picks companion
  EXPECT_NE(progC.blocks[0].scheme.find("companion"), std::string::npos);
}

TEST(Compiler, InputsReportedWithRanges) {
  const auto prog = core::compileSource(testing::figure3Source(8));
  ASSERT_EQ(prog.inputs.size(), 3u);
  EXPECT_EQ(prog.inputs.at("B"), (val::Range{0, 9}));
  EXPECT_EQ(prog.inputs.at("A2"), (val::Range{1, 8}));
}

}  // namespace
}  // namespace valpipe

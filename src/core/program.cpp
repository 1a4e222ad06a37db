// Whole-program compilation (Theorem 4), phase-split per core/phases.hpp:
// buildGraph splices the blocks' fully pipelined subgraphs along the acyclic
// flow dependency graph; normalize / balance / lower then carry the result
// to the machine-ready form.  compile() is the composition.
#include <sstream>

#include "core/balance.hpp"
#include "core/block_compiler.hpp"
#include "core/compiler.hpp"
#include "core/phases.hpp"
#include "core/schemes.hpp"
#include "dfg/expand_ctl.hpp"
#include "dfg/lower.hpp"
#include "dfg/prune.hpp"
#include "dfg/validate.hpp"
#include "opt/fuse.hpp"
#include "support/check.hpp"
#include "support/diagnostics.hpp"
#include "val/classify.hpp"
#include "val/parser.hpp"

namespace valpipe::core {

using dfg::Graph;
using dfg::PortSrc;
using val::Block;
using val::Module;

double CompiledProgram::predictedRate() const {
  double rate = 0.5;
  for (const BlockReport& b : blocks) rate = std::min(rate, b.predictedRate);
  return rate;
}

namespace {

/// Ensures a block result is a stream (constant blocks fold to literals,
/// which Output cells and downstream gates cannot meter by themselves).
PortSrc ensureStream(Graph& g, const Module& m, const CompileOptions& opts,
                     const std::map<std::string, ArraySource>& arrays,
                     const Block& b, PortSrc result, std::int64_t repl) {
  if (!result.isLiteral()) return result;
  BlockCompiler bc(g, m, opts, arrays, "i", *b.type.range, repl);
  return bc.literalStream(result.literal, b.type.streamLength());
}

}  // namespace

namespace phases {

CompiledProgram buildGraph(const Module& m, const CompileOptions& opts) {
  if (auto r = val::isPipeStructured(m); !r)
    throw CompileError("not a pipe-structured program: " + r.reason);
  const bool longFifo = opts.forIterScheme == ForIterScheme::LongFifo;
  if (longFifo && opts.interleave < 2)
    throw CompileError("long-FIFO scheme needs CompileOptions::interleave "
                       ">= 2 (got " +
                       std::to_string(opts.interleave) + ")");
  const std::int64_t repl = longFifo ? opts.interleave : 1;
  if (longFifo && m.blocks.size() != 1)
    throw CompileError(
        "the long-FIFO scheme interleaves block streams and is supported for "
        "single-block programs only");

  CompiledProgram out;
  Graph& g = out.graph;

  // Scalar parameters need load-time bindings (§2: operand fields hold the
  // values when the program is loaded).
  for (const val::Param& p : m.params)
    if (!p.type.isArray && !opts.scalarBindings.count(p.name))
      throw CompileError("scalar parameter '" + p.name +
                         "' needs a load-time binding");

  // Input endpoints for the array parameters.
  std::map<std::string, ArraySource> arrays;
  for (const val::Param& p : m.params) {
    if (!p.type.isArray) continue;
    VALPIPE_CHECK(p.type.range.has_value());
    const dfg::NodeId in = g.input(p.name, p.type.streamLength() * repl);
    arrays[p.name] = {Graph::out(in), *p.type.range, p.type.range2};
    out.inputs[p.name] = *p.type.range;
    out.inputTypes[p.name] = p.type;
  }

  // Blocks in binding order (the flow dependency graph is acyclic by the
  // applicative semantics; typecheck enforced it).
  for (const Block& b : m.blocks) {
    BlockReport report;
    report.name = b.name;
    PortSrc result;
    if (b.isForall()) {
      result = opts.forallScheme == ForallScheme::Parallel
                   ? compileForallParallel(g, m, opts, arrays, b, report)
                   : compileForallPipeline(g, m, opts, arrays, b, report);
    } else {
      switch (opts.forIterScheme) {
        case ForIterScheme::Todd:
          result = compileForIterTodd(g, m, opts, arrays, b, report);
          break;
        case ForIterScheme::Companion:
          result = compileForIterCompanion(g, m, opts, arrays, b,
                                           opts.companionSkip, report);
          break;
        case ForIterScheme::LongFifo:
          result = compileForIterLongFifo(g, m, opts, arrays, b,
                                          opts.interleave, report);
          break;
        case ForIterScheme::Auto:
          if (val::isSimpleForIter(b, m))
            result = compileForIterCompanion(g, m, opts, arrays, b,
                                             opts.companionSkip, report);
          else
            result = compileForIterTodd(g, m, opts, arrays, b, report);
          break;
      }
    }
    result = ensureStream(g, m, opts, arrays, b, result, repl);

    if (opts.routing == ArrayRouting::Memory) {
      // Conventional layout: the produced array goes to an array memory and
      // consumers fetch it back (the §2 traffic comparison).
      g.amStore(b.name, result);
      const dfg::NodeId fetch =
          g.amFetch(b.name, b.type.streamLength() * repl);
      result = Graph::out(fetch);
    }
    arrays[b.name] = {result, *b.type.range, b.type.range2};
    out.blocks.push_back(std::move(report));
  }

  const ArraySource& resultSrc = arrays.at(m.resultName);
  g.output(m.resultName, resultSrc.stream);
  out.outputName = m.resultName;
  out.outputRange = resultSrc.range;
  out.outputType = m.findBlock(m.resultName)->type;
  out.interleave = repl;
  return out;
}

void normalize(CompiledProgram& p, const CompileOptions& opts) {
  p.graph = dfg::pruneDead(p.graph);
  if (opts.lowerControl) {
    p.graph = dfg::expandControlGenerators(p.graph);
    p.graph = dfg::pruneDead(p.graph);  // drop the stale generators
  }
}

void balance(CompiledProgram& p, const CompileOptions& opts) {
  p.balance = balanceGraph(p.graph, opts.balanceMode);
  dfg::validateOrThrow(p.graph, /*requireAcyclic=*/true);
}

void lower(CompiledProgram& p, const CompileOptions& opts) {
  if (!opts.lower) return;
  if (opts.fuseFifos) {
    opt::FusionStats stats;
    p.graph = opt::fuseFifos(p.graph, &stats);
    p.fusion = stats;
  } else {
    p.graph = dfg::expandFifos(p.graph);
  }
}

}  // namespace phases

CompiledProgram compile(const Module& m, const CompileOptions& opts) {
  CompiledProgram out = phases::buildGraph(m, opts);
  phases::normalize(out, opts);
  phases::balance(out, opts);
  phases::lower(out, opts);
  return out;
}

CompiledProgram compileSource(const std::string& source,
                              const CompileOptions& opts) {
  Module m = frontend(source);
  return compile(m, opts);
}

Module frontend(const std::string& source) {
  Module m = val::parseModuleOrThrow(source);
  val::typecheckOrThrow(m);
  return m;
}

}  // namespace valpipe::core

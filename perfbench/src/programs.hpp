// The programs, inputs and output checks the workloads share.
//
// Every valpipe call the workloads make goes through the helpers here or is
// wrapped at its call site, so each one is a span in the traced run.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "core/options.hpp"
#include "exec/executable_graph.hpp"
#include "machine/engine.hpp"
#include "run/io.hpp"
#include "sched/schedule.hpp"
#include "spans.hpp"
#include "val/ast.hpp"

namespace perfbench {

namespace vp = valpipe;

/// The Val sources the workloads compile: the five examples/programs/*.val
/// (example1 is fig6's forall, example2 is fig7/fig8's recurrence) plus the
/// fig4 selection and fig5 conditional of the paper's figures.
enum class Source { Forall, Selection, Conditional, Figure3, Recurrence,
                    RowScale, Stencil };

const char* sourceName(Source s);
/// True for the sources with a for-iter block.
bool hasForIter(Source s);

/// Source text at size `m`: 1-D programs use m as their const; the 2-D ones
/// take sides near sqrt(m) so every program streams about m elements.
std::string sourceText(Source s, std::int64_t m);

/// A program compiled down to everything the engine needs: the lowered
/// program, its flat graph, and its schedule IR.
struct Built {
  vp::core::CompiledProgram program;
  std::unique_ptr<vp::exec::ExecutableGraph> exec;
  vp::sched::SteadySchedule schedule;
  std::size_t cellsBuilt = 0;  ///< graph size right after buildGraph
};

/// Exact counts summed over a workload's programs.
struct ProgramCounts {
  double programs = 0;
  double cells = 0;       ///< ExecutableGraph::size()
  double buffers = 0;     ///< BalanceOutcome::buffersInserted
  double cellsBuilt = 0;  ///< graph size right after buildGraph
  double absorbed = 0;    ///< FusionStats::cellsAbsorbed
  double accepted = 0;    ///< programs the schedule IR accepted
  void add(const Built& b);
};

/// Source text -> ExecutableGraph + schedule IR through the public phase
/// calls, each in its own span.  `opts.lower` is forced on.  Throws
/// vp::CompileError when the program does not compile.
Built compileProgram(Tracer& tr, const std::string& source,
                     vp::core::CompileOptions opts, std::uint32_t request = 0);

/// Figure 2's three-stage pipeline as a hand-built graph (no source text),
/// flattened and scheduled like a compiled program.
Built buildFigure2(Tracer& tr, std::int64_t m);
/// Val text computing the same function as buildFigure2, for the evaluator.
std::string figure2Source(std::int64_t m);

/// One wave of seeded inputs for `prog`, uniform in [lo, hi).
vp::run::StreamMap randomInputs(const vp::core::CompiledProgram& prog,
                                std::mt19937_64& rng, double lo = -1.0,
                                double hi = 1.0);

/// machine::simulate over the prebuilt flat graph, in a span.
vp::machine::MachineResult simulate(Tracer& tr, const Built& b,
                                    const vp::run::StreamMap& inputs,
                                    vp::machine::SchedulerKind kind);

/// FNV-1a digest of everything a client observes of a run: output values,
/// output times, firing total, and instruction times.
std::uint64_t digest(const vp::machine::MachineResult& r);
/// FNV-1a digest of one output stream's values.
std::uint64_t digest(const std::vector<vp::Value>& values);

/// Field-by-field equality of two runs (the scheduler-equivalence contract).
bool identical(const vp::machine::MachineResult& a,
               const vp::machine::MachineResult& b);

/// True when `got` (one wave of prog's output stream for `inputs`) agrees
/// with val::evaluate of `mod` within relative tolerance `tol`.  Handles
/// the LongFifo scheme's element-interleaved instances and 2-D arrays.
bool matchesEvaluator(Tracer& tr, const vp::val::Module& mod,
                      const vp::core::CompiledProgram& prog,
                      const vp::run::StreamMap& inputs,
                      const std::vector<vp::Value>& got, double tol = 1e-9);

}  // namespace perfbench

#include "programs.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/phases.hpp"
#include "dfg/graph.hpp"
#include "machine/config.hpp"
#include "val/eval.hpp"

namespace perfbench {

namespace {

std::string constLine(const char* name, std::int64_t v) {
  return std::string("const ") + name + " = " + std::to_string(v) + "\n";
}

std::int64_t side(std::int64_t m) {
  return std::max<std::int64_t>(2, std::llround(std::sqrt(double(m))));
}

void mix(std::uint64_t& h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
}

void mixValue(std::uint64_t& h, const vp::Value& v) {
  const auto kind = static_cast<std::uint8_t>(v.kind());
  mix(h, &kind, 1);
  if (v.isReal()) {
    const double d = v.asReal();
    mix(h, &d, sizeof d);
  } else if (v.isInteger()) {
    const std::int64_t i = v.asInteger();
    mix(h, &i, sizeof i);
  } else if (v.isBoolean()) {
    const bool b = v.asBoolean();
    mix(h, &b, 1);
  } else {
    throw std::invalid_argument("lane pack in a client-visible output");
  }
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// One wave of `prog`, stopping once its output is complete.
vp::machine::RunOptions runOptions(const vp::core::CompiledProgram& prog,
                                   vp::machine::SchedulerKind kind) {
  vp::machine::RunOptions o;
  o.scheduler = kind;
  o.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
  return o;
}

}  // namespace

const char* sourceName(Source s) {
  switch (s) {
    case Source::Forall: return "fig6_forall";
    case Source::Selection: return "fig4_selection";
    case Source::Conditional: return "fig5_conditional";
    case Source::Figure3: return "fig3_program";
    case Source::Recurrence: return "fig7_recurrence";
    case Source::RowScale: return "rowscale";
    case Source::Stencil: return "stencil2d";
  }
  return "?";
}

bool hasForIter(Source s) {
  return s == Source::Recurrence || s == Source::Figure3;
}

std::string sourceText(Source s, std::int64_t m) {
  switch (s) {
    case Source::Forall:
      return constLine("m", m) + R"(
function ex1(B, C: array[real] [0, m+1] returns array[real])
  forall i in [0, m+1]
    P : real := if (i = 0) | (i = m+1) then C[i]
                else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
  construct B[i] * (P * P)
  endall
endfun
)";
    case Source::Selection:
      return constLine("m", m) + R"(
function sel(C: array[real] [0, m+1] returns array[real])
  forall i in [1, m]
  construct 0.25 * (C[i-1] + 2.*C[i] + C[i+1])
  endall
endfun
)";
    case Source::Conditional:
      return constLine("m", m) + R"(
function cond(A, B, C: array[real] [1, m] returns array[real])
  forall i in [1, m]
  construct if C[i] > 0. then -(A[i] + B[i])
            else 5. * (A[i] * B[i] + 2.) endif
  endall
endfun
)";
    case Source::Figure3:
      return constLine("m", m) + R"(
function fig3(B, C: array[real] [0, m+1]; A2: array[real] [1, m]
              returns array[real])
  let
    A : array[real] := forall i in [0, m+1]
        P : real := if (i = 0) | (i = m+1) then C[i]
                    else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
      construct B[i] * (P * P)
      endall;
    X : array[real] := for i : integer := 1;
        T : array[real] := [0: 0]
      do let P : real := A2[i]*T[i-1] + A[i]
         in if i < m + 1 then iter T := T[i: P]; i := i + 1 enditer
            else T endif
         endlet
      endfor
  in X endlet
endfun
)";
    case Source::Recurrence:
      return constLine("m", m) + R"(
function ex2(A, B: array[real] [1, m] returns array[real])
  for i : integer := 1; T : array[real] := [0: 0]
  do let P : real := A[i]*T[i-1] + B[i]
     in if i < m + 1 then iter T := T[i: P]; i := i + 1 enditer
        else T endif
     endlet
  endfor
endfun
)";
    case Source::RowScale:
      return constLine("h", side(m)) + constLine("w", side(m)) + R"(
function rowscale(U: array[real] [1, h] [1, w]; S: array[real] [1, h]
                  returns array[real])
  forall i in [1, h], j in [1, w]
  construct U[i, j] * S[i]
  endall
endfun
)";
    case Source::Stencil:
      return constLine("n", std::max<std::int64_t>(1, side(m) - 2)) + R"(
function stencil(U: array[real] [0, n+1] [0, n+1] returns array[real])
  forall i in [0, n+1], j in [0, n+1]
    D : real := if (i = 0) | (i = n+1) | (j = 0) | (j = n+1) then 0.
                else U[i-1, j] + U[i+1, j] + U[i, j-1] + U[i, j+1]
                     - 4. * U[i, j] endif;
  construct U[i, j] + 0.2 * D
  endall
endfun
)";
  }
  throw std::invalid_argument("unknown source");
}

Built compileProgram(Tracer& tr, const std::string& source,
                     vp::core::CompileOptions opts, std::uint32_t request) {
  namespace phases = vp::core::phases;
  opts.lower = true;
  Built b;
  vp::val::Module mod;
  {
    auto s = tr.span("val.frontend", request);
    mod = vp::core::frontend(source);
  }
  {
    auto s = tr.span("core.build", request);
    b.program = phases::buildGraph(mod, opts);
  }
  b.cellsBuilt = b.program.graph.size();
  {
    auto s = tr.span("core.normalize", request);
    phases::normalize(b.program, opts);
  }
  {
    auto s = tr.span("core.balance", request);
    phases::balance(b.program, opts);
  }
  {
    auto s = tr.span("core.lower", request);
    phases::lower(b.program, opts);
  }
  {
    auto s = tr.span("exec.flatten", request);
    b.exec = std::make_unique<vp::exec::ExecutableGraph>(b.program.graph);
  }
  {
    auto s = tr.span("sched.schedule", request);
    b.schedule = vp::sched::computeSteadySchedule(*b.exec);
  }
  return b;
}

void ProgramCounts::add(const Built& b) {
  programs += 1;
  cells += static_cast<double>(b.exec->size());
  buffers += static_cast<double>(b.program.balance.buffersInserted);
  cellsBuilt += static_cast<double>(b.cellsBuilt);
  if (b.program.fusion)
    absorbed += static_cast<double>(b.program.fusion->cellsAbsorbed);
  accepted += b.schedule.accepted ? 1 : 0;
}

std::string figure2Source(std::int64_t m) {
  return constLine("m", m) + R"(
function fig2(a, b: array[real] [1, m] returns array[real])
  forall i in [1, m]
    y : real := a[i] * b[i];
  construct (y + 2.) * (y - 3.)
  endall
endfun
)";
}

Built buildFigure2(Tracer& tr, std::int64_t m) {
  namespace dfg = vp::dfg;
  Built b;
  {
    auto s = tr.span("core.build");
    dfg::Graph& g = b.program.graph;
    const auto a = g.input("a", m);
    const auto bb = g.input("b", m);
    const auto y = g.binary(dfg::Op::Mul, dfg::Graph::out(a),
                            dfg::Graph::out(bb), "cell1");
    const auto p = g.binary(dfg::Op::Add, dfg::Graph::out(y),
                            dfg::Graph::lit(vp::Value(2.0)), "cell2");
    const auto q = g.binary(dfg::Op::Sub, dfg::Graph::out(y),
                            dfg::Graph::lit(vp::Value(3.0)), "cell3");
    const auto r = g.binary(dfg::Op::Mul, dfg::Graph::out(p),
                            dfg::Graph::out(q), "cell4");
    g.output("x", dfg::Graph::out(r));
    // The program facts the workloads read, as the compiler would set them.
    const vp::val::Range range{1, m};
    for (const char* name : {"a", "b"}) {
      b.program.inputs[name] = range;
      b.program.inputTypes[name] =
          vp::val::Type::array(vp::val::Scalar::Real, range);
    }
    b.program.outputName = std::string(1, 'x');  // move, not copy: GCC 12 -Wrestrict
    b.program.outputRange = range;
    b.program.outputType = vp::val::Type::array(vp::val::Scalar::Real, range);
  }
  b.cellsBuilt = b.program.graph.size();
  {
    auto s = tr.span("exec.flatten");
    b.exec = std::make_unique<vp::exec::ExecutableGraph>(b.program.graph);
  }
  {
    auto s = tr.span("sched.schedule");
    b.schedule = vp::sched::computeSteadySchedule(*b.exec);
  }
  return b;
}

vp::run::StreamMap randomInputs(const vp::core::CompiledProgram& prog,
                                std::mt19937_64& rng, double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  vp::run::StreamMap in;
  for (const auto& [name, range] : prog.inputs) {
    std::vector<vp::Value>& s = in[name];
    const std::int64_t n = prog.inputLengthPerWave(name);
    s.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) s.emplace_back(dist(rng));
  }
  return in;
}

vp::machine::MachineResult simulate(Tracer& tr, const Built& b,
                                    const vp::run::StreamMap& inputs,
                                    vp::machine::SchedulerKind kind) {
  auto s = tr.span("machine.simulate");
  return vp::machine::simulate(b.program.graph, *b.exec,
                               vp::machine::MachineConfig::unit(), inputs,
                               runOptions(b.program, kind));
}

std::uint64_t digest(const std::vector<vp::Value>& values) {
  std::uint64_t h = kFnvBasis;
  for (const vp::Value& v : values) mixValue(h, v);
  return h;
}

std::uint64_t digest(const vp::machine::MachineResult& r) {
  std::uint64_t h = kFnvBasis;
  for (const auto& [name, values] : r.outputs) {
    mix(h, name.data(), name.size());
    for (const vp::Value& v : values) mixValue(h, v);
  }
  for (const auto& [name, times] : r.outputTimes)
    mix(h, times.data(), times.size() * sizeof(std::int64_t));
  mix(h, &r.totalFirings, sizeof r.totalFirings);
  mix(h, &r.cycles, sizeof r.cycles);
  mix(h, &r.completed, sizeof r.completed);
  return h;
}

bool identical(const vp::machine::MachineResult& a,
               const vp::machine::MachineResult& b) {
  return a.outputs == b.outputs && a.amFinal == b.amFinal &&
         a.outputTimes == b.outputTimes && a.firings == b.firings &&
         a.totalFirings == b.totalFirings && a.cycles == b.cycles &&
         a.completed == b.completed &&
         a.packets.opPacketsByClass == b.packets.opPacketsByClass &&
         a.packets.resultPackets == b.packets.resultPackets &&
         a.packets.ackPackets == b.packets.ackPackets &&
         a.packets.networkResultPackets == b.packets.networkResultPackets &&
         a.fuBusy == b.fuBusy;
}

bool matchesEvaluator(Tracer& tr, const vp::val::Module& mod,
                      const vp::core::CompiledProgram& prog,
                      const vp::run::StreamMap& inputs,
                      const std::vector<vp::Value>& got, double tol) {
  const auto lanes = static_cast<std::size_t>(prog.interleave);
  const auto perInstance =
      static_cast<std::size_t>(prog.expectedOutputPerWave()) / lanes;
  if (got.size() != perInstance * lanes) return false;
  for (std::size_t b = 0; b < lanes; ++b) {
    // Instance b of an interleaved stream is every lanes-th element.
    vp::val::ArrayMap params;
    for (const auto& [name, stream] : inputs) {
      const vp::val::Type& t = prog.inputTypes.at(name);
      vp::val::ArrayVal a;
      a.lo = t.range->lo;
      if (t.range2) {
        a.lo2 = t.range2->lo;
        a.width = t.range2->length();
      }
      for (std::size_t i = b; i < stream.size(); i += lanes)
        a.elems.push_back(stream[i]);
      params[name] = std::move(a);
    }
    vp::val::EvalResult want;
    {
      auto s = tr.span("val.evaluate");
      want = vp::val::evaluate(mod, params);
    }
    if (want.result.elems.size() != perInstance) return false;
    for (std::size_t i = 0; i < perInstance; ++i) {
      const double w = want.result.elems[i].toReal();
      const double g = got[i * lanes + b].toReal();
      if (!(std::fabs(g - w) <= tol * std::max(1.0, std::fabs(w)))) return false;
    }
  }
  return true;
}

}  // namespace perfbench

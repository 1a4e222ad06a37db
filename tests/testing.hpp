// Shared helpers for the valpipe test suite.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "dfg/lower.hpp"
#include "machine/engine.hpp"
#include "sim/interpreter.hpp"
#include "support/value.hpp"
#include "val/eval.hpp"

namespace valpipe::testing {

/// The paper's Example 1 (§4): boundary-guarded smoothing forall.
inline std::string example1Source(int m = 8) {
  return "const m = " + std::to_string(m) + "\n" +
         R"(function ex1(B, C: array[real] [0, m+1] returns array[real])
  forall i in [0, m+1]
    P : real := if (i = 0) | (i = m+1) then C[i]
                else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
  construct B[i] * (P * P)
  endall
endfun
)";
}

/// The paper's Example 2 (§4): first-order linear recurrence for-iter.
inline std::string example2Source(int m = 8) {
  return "const m = " + std::to_string(m) + "\n" +
         R"(function ex2(A, B: array[real] [1, m] returns array[real])
  for i : integer := 1;
      T : array[real] := [0: 0]
  do let P : real := A[i]*T[i-1] + B[i]
     in if i < m + 1 then iter T := T[i: P]; i := i + 1 enditer
        else T endif
     endlet
  endfor
endfun
)";
}

/// Figure 3's pipe-structured program: Example 1 feeding Example 2.
inline std::string figure3Source(int m = 8) {
  return "const m = " + std::to_string(m) + "\n" +
         R"(function fig3(B, C: array[real] [0, m+1]; A2: array[real] [1, m]
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
}

/// Figure 4's selection: an interior stencil that drops C's boundary
/// elements by compile-time gates (§5).
inline std::string selectionSource(int m = 8) {
  return "const m = " + std::to_string(m) + "\n" +
         R"(function sel(C: array[real] [0, m+1] returns array[real])
  forall i in [1, m]
  construct 0.25 * (C[i-1] + 2.*C[i] + C[i+1])
  endall
endfun
)";
}

/// Figure 5's conditional: the branch is chosen by the data (C[i] > 0).
inline std::string conditionalSource(int m = 8) {
  return "const m = " + std::to_string(m) + "\n" +
         R"(function cond(A, B, C: array[real] [1, m] returns array[real])
  forall i in [1, m]
  construct if C[i] > 0. then -(A[i] + B[i])
            else 5. * (A[i] * B[i] + 2.) endif
  endall
endfun
)";
}

/// The figure programs whose control is compile-time (§5 selection, §6
/// boundary merge, §7 loop control), compiled at `m`.
struct FigureProgram {
  std::string name;
  core::CompiledProgram prog;
};

inline std::vector<FigureProgram> replayFigures(int m) {
  core::CompileOptions todd, companion;
  todd.forIterScheme = core::ForIterScheme::Todd;
  companion.forIterScheme = core::ForIterScheme::Companion;
  companion.companionSkip = 4;
  std::vector<FigureProgram> out;
  out.push_back({"fig3", core::compileSource(figure3Source(m))});
  out.push_back({"fig4", core::compileSource(selectionSource(m))});
  out.push_back({"fig6", core::compileSource(example1Source(m))});
  out.push_back({"fig7-todd", core::compileSource(example2Source(m), todd)});
  out.push_back({"fig8-companion",
                 core::compileSource(example2Source(m), companion)});
  return out;
}

/// One numeric `/proc/self/status` field: VmSize and VmRSS in KiB, Threads
/// as a count; -1 if absent.
inline long procStatus(const std::string& field) {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind(field + ":", 0) == 0)
      return std::stol(line.substr(field.size() + 1));
  return -1;
}

/// Deterministic pseudo-random real array over `range`.
inline val::ArrayVal randomArray(val::Range range, unsigned seed,
                                 double lo = -1.0, double hi = 1.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  val::ArrayVal a;
  a.lo = range.lo;
  a.elems.reserve(static_cast<std::size_t>(range.length()));
  for (std::int64_t i = 0; i < range.length(); ++i) a.elems.push_back(dist(rng));
  return a;
}

/// ArrayVal -> raw stream.
inline std::vector<Value> streamOf(const val::ArrayVal& a) { return a.elems; }

/// Builds simulator inputs for a compiled program from named arrays.
inline run::StreamMap inputsFor(const core::CompiledProgram& prog,
                                const val::ArrayMap& arrays) {
  run::StreamMap in;
  for (const auto& [name, range] : prog.inputs) {
    auto it = arrays.find(name);
    if (it == arrays.end()) ADD_FAILURE() << "missing test input " << name;
    else in[name] = it->second.elems;
  }
  return in;
}

/// Inputs in (-0.9, 0.9) for every parameter, so recurrences stay bounded.
inline run::StreamMap figureInputs(const core::CompiledProgram& prog,
                                   unsigned seed) {
  val::ArrayMap in;
  unsigned k = 0;
  for (const auto& [name, range] : prog.inputs)
    in[name] = randomArray(range, seed + 100 * k++, -0.9, 0.9);
  return inputsFor(prog, in);
}

inline void expectStreamNear(const std::vector<Value>& got,
                             const std::vector<Value>& want,
                             double tol = 0.0,
                             const std::string& what = "stream") {
  ASSERT_EQ(got.size(), want.size()) << what << " length";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (tol == 0.0) {
      EXPECT_EQ(got[i].toReal(), want[i].toReal())
          << what << " element " << i;
    } else {
      // Relative tolerance for large magnitudes (recurrences can grow).
      const double scale = std::max(1.0, std::fabs(want[i].toReal()));
      EXPECT_NEAR(got[i].toReal(), want[i].toReal(), tol * scale)
          << what << " element " << i;
    }
  }
}

/// Asserts two MachineResults are identical in every observable field —
/// the scheduler-equivalence contract (all SchedulerKinds).
inline void expectIdentical(const machine::MachineResult& got,
                            const machine::MachineResult& want,
                            const std::string& what) {
  EXPECT_EQ(got.outputs, want.outputs) << what << ": outputs";
  EXPECT_EQ(got.amFinal, want.amFinal) << what << ": amFinal";
  EXPECT_EQ(got.outputTimes, want.outputTimes) << what << ": outputTimes";
  EXPECT_EQ(got.firings, want.firings) << what << ": firings";
  EXPECT_EQ(got.totalFirings, want.totalFirings) << what << ": totalFirings";
  EXPECT_EQ(got.cycles, want.cycles) << what << ": cycles";
  EXPECT_EQ(got.completed, want.completed) << what << ": completed";
  EXPECT_EQ(got.note, want.note) << what << ": note";
  EXPECT_EQ(got.packets.opPacketsByClass, want.packets.opPacketsByClass)
      << what << ": opPacketsByClass";
  EXPECT_EQ(got.packets.resultPackets, want.packets.resultPackets)
      << what << ": resultPackets";
  EXPECT_EQ(got.packets.ackPackets, want.packets.ackPackets)
      << what << ": ackPackets";
  EXPECT_EQ(got.packets.networkResultPackets,
            want.packets.networkResultPackets)
      << what << ": networkResultPackets";
  EXPECT_EQ(got.fuBusy, want.fuBusy) << what << ": fuBusy";
  EXPECT_EQ(got.pePackets, want.pePackets) << what << ": pePackets";
}

/// Runs a compiled program through the untimed interpreter and checks its
/// output against expected values.
inline void checkInterpreted(const core::CompiledProgram& prog,
                             const val::ArrayMap& inputs,
                             const std::vector<Value>& expected,
                             double tol = 0.0, int waves = 1) {
  run::RunOptions opts;
  opts.waves = waves;
  // A livelocked graph should abort with a StallError, not spin forever.
  opts.maxInstructionTimes = 5'000'000;
  const sim::RunResult res =
      sim::interpret(prog.graph, inputsFor(prog, inputs), opts);
  EXPECT_TRUE(res.quiescent) << res.note;
  auto it = res.outputs.find(prog.outputName);
  ASSERT_NE(it, res.outputs.end()) << "no output stream";
  std::vector<Value> want;
  for (int w = 0; w < waves; ++w)
    want.insert(want.end(), expected.begin(), expected.end());
  expectStreamNear(it->second, want, tol, "interpreter output");
}

/// Runs through the timed machine (unit profile) and checks output values
/// plus (optionally) the steady-state rate.
inline machine::MachineResult checkMachine(
    const core::CompiledProgram& prog, const val::ArrayMap& inputs,
    const std::vector<Value>& expected, double tol = 0.0, int waves = 1,
    double minRate = -1.0, double maxRate = 1.0) {
  dfg::Graph lowered = dfg::isLowered(prog.graph)
                           ? prog.graph
                           : dfg::expandFifos(prog.graph);
  machine::RunOptions opts;
  opts.waves = waves;
  // A livelocked graph should abort with a StallError, not spin forever.
  opts.maxInstructionTimes = 2'000'000;
  opts.expectedOutputs[prog.outputName] =
      prog.expectedOutputPerWave() * waves;
  const machine::MachineResult res = machine::simulate(
      lowered, machine::MachineConfig::unit(), inputsFor(prog, inputs), opts);
  EXPECT_TRUE(res.completed) << res.note;
  auto it = res.outputs.find(prog.outputName);
  if (it == res.outputs.end()) {
    ADD_FAILURE() << "no output stream from machine";
    return res;
  }
  std::vector<Value> want;
  for (int w = 0; w < waves; ++w)
    want.insert(want.end(), expected.begin(), expected.end());
  expectStreamNear(it->second, want, tol, "machine output");
  if (minRate >= 0.0) {
    const double rate = res.steadyRate(prog.outputName);
    EXPECT_GE(rate, minRate) << "steady rate too low";
    EXPECT_LE(rate, maxRate + 1e-9) << "steady rate impossibly high";
  }
  return res;
}

}  // namespace valpipe::testing

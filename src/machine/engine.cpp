// Timed machine simulation over the flattened exec::ExecutableGraph.
//
// The engine itself — flat state, firing discipline, and the event loop — is
// detail::SingleEngine (machine/engine_single.hpp).  This file supplies the
// MachineResult rate helpers and the one simulate() entry point that
// dispatches on RunOptions::scheduler:
//
//   Reference    → machine/engine_reference.cpp (pointer-walking oracle over
//                  dfg::Graph);
//   EventDriven  → SingleEngine::runEventDriven (time wheel);
//   Compiled     → detail::runCompiled (machine/engine_compiled.cpp): the
//                  event loop with a steady-state detector hooked in,
//                  fast-forwarding whole periods through the
//                  sched::SteadySchedule IR when the graph admits a static
//                  schedule, and the plain event loop when it does not.
#include "machine/engine.hpp"

#include <utility>

#include "exec/executable_graph.hpp"
#include "machine/engine_single.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace valpipe::machine {

using exec::ExecutableGraph;

double MachineResult::overallRate(const std::string& stream) const {
  auto it = outputTimes.find(stream);
  if (it == outputTimes.end() || it->second.size() < 2) return 0.0;
  const auto& t = it->second;
  return static_cast<double>(t.size() - 1) /
         static_cast<double>(t.back() - t.front());
}

double MachineResult::steadyRate(const std::string& stream) const {
  auto it = outputTimes.find(stream);
  if (it == outputTimes.end() || it->second.size() < 8) return overallRate(stream);
  const auto& t = it->second;
  const std::size_t i1 = t.size() / 4;
  const std::size_t i2 = 3 * t.size() / 4;
  if (t[i2] == t[i1]) return 0.0;
  return static_cast<double>(i2 - i1) / static_cast<double>(t[i2] - t[i1]);
}

MachineResult simulate(const dfg::Graph& lowered, const MachineConfig& cfg,
                       const run::StreamMap& inputs, const RunOptions& opts) {
  // Both lowering paths are accepted: expanded graphs (dfg::expandFifos, no
  // Fifo nodes) and fused graphs whose composite Fifo cells the engines fire
  // through the timing-equivalent ring-buffer rule (exec/fifo.hpp).
  if (opts.scheduler == SchedulerKind::Reference)
    return detail::simulateReference(lowered, cfg, inputs, opts);
  const ExecutableGraph eg(lowered);
  return simulate(lowered, eg, cfg, inputs, opts);
}

MachineResult simulate(const dfg::Graph& lowered, const ExecutableGraph& eg,
                       const MachineConfig& cfg, const run::StreamMap& inputs,
                       const RunOptions& opts) {
  if (opts.scheduler == SchedulerKind::Reference)
    return detail::simulateReference(lowered, cfg, inputs, opts);
  detail::SingleEngine engine(eg, cfg, inputs, opts);
  engine.lowered = &lowered;
  if (opts.restoreFrom) detail::restoreSingle(engine, *opts.restoreFrom);
  if (opts.trace) opts.trace->begin(detail::traceMetaFor(lowered, opts));
  if (opts.metrics) opts.metrics->begin(eg.size());
  engine.probe = obs::LaneProbe(opts.trace, opts.metrics);
  if (opts.scheduler == SchedulerKind::Compiled) {
    engine.schedLabel = "Compiled";
    detail::runCompiled(engine);
  } else {
    engine.runEventDriven();
  }
  if (opts.metrics)
    opts.metrics->finishRun(engine.schedLabel, engine.result.cycles,
                            engine.result.fuBusy);
  if (opts.trace) opts.trace->seal();
  return std::move(engine.result);
}

}  // namespace valpipe::machine

// End-to-end serving (serve/server.hpp): correctness of one-shot and
// streaming requests against direct engine runs, admission control, session
// isolation under injected faults, batch fallback, which scheduler ran and
// which programs batch, backpressure, structured failure reporting, and
// what a request may cost the process: no thread per request, no memory
// per declared but unsent wave.  Run under
// the TSan preset (ctest -L tsan): the whole subsystem is concurrent by
// construction.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"
#include "testing.hpp"

namespace valpipe {
namespace {

core::CompileOptions copts() {
  core::CompileOptions o;
  o.lower = true;
  return o;
}

/// Data-dependent conditional (the Fig. 5 shape): gate control follows the
/// SIGN of C[i], so tenants with different signs diverge lane-wise.
std::string condSource(int m = 8) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function cond(A, B, C: array[real] [1, m] returns array[real])
  forall i in [1, m]
  construct if C[i] > 0. then -(A[i] + B[i])
            else 5. * (A[i] * B[i] + 2.) endif
  endall
endfun
)";
}

run::StreamMap tenantInputs(const core::CompiledProgram& prog, unsigned seed,
                            double lo = -1.0, double hi = 1.0) {
  val::ArrayMap arrays;
  unsigned k = 0;
  for (const auto& [name, range] : prog.inputs)
    arrays[name] = testing::randomArray(range, seed + 31 * k++, lo, hi);
  return testing::inputsFor(prog, arrays);
}

run::StreamMap directRun(const core::CompiledProgram& prog,
                         const run::StreamMap& inputs) {
  machine::RunOptions ro;
  ro.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
  const auto res = machine::simulate(prog.graph,
                                     machine::MachineConfig::unit(), inputs, ro);
  EXPECT_TRUE(res.completed) << res.note;
  return res.outputs;
}

TEST(Serve, OneShotMatchesDirectRunAndHitsTheCache) {
  serve::ServerConfig cfg;
  cfg.laneWidth = 4;
  cfg.batchWindowMicros = 2000;
  serve::Server server(cfg);

  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());

  constexpr int kN = 6;
  std::vector<run::StreamMap> inputs;
  std::vector<std::future<serve::Response>> futs;
  for (int i = 0; i < kN; ++i)
    inputs.push_back(tenantInputs(prog, 100u + unsigned(i)));
  for (int i = 0; i < kN; ++i)
    futs.push_back(
        server.submit(src, copts(), inputs[static_cast<std::size_t>(i)]));

  for (int i = 0; i < kN; ++i) {
    const serve::Response r = futs[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(r.ok()) << serve::toString(r.status) << ": " << r.error;
    EXPECT_EQ(r.outputs.at(prog.outputName),
              directRun(prog, inputs[static_cast<std::size_t>(i)])
                  .at(prog.outputName))
        << "request " << i << " differs from its direct run";
    EXPECT_GT(r.stats.firings, 0u);
    EXPECT_GE(r.stats.latencyMicros, 0);
  }

  // One source, one compile; every other request hit the resident program.
  EXPECT_EQ(server.cacheStats().compiles, 1u);
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.requestsCompleted, std::uint64_t(kN));
  EXPECT_EQ(st.requestsFailed, 0u);
  EXPECT_EQ(st.lanesExecuted, std::uint64_t(kN));
  server.shutdown();
}

TEST(Serve, OneShotWithMoreWavesThanTheWindow) {
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.laneWidth = 4;
  serve::Server server(cfg);

  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());

  // A one-shot has no consumer to pull, so only finished waves can let the
  // waves beyond the in-flight window through.
  serve::SessionOptions sopts;
  sopts.waves = 3 * static_cast<int>(cfg.sessionWindowWaves) + 1;

  constexpr int kN = 4;
  std::vector<run::StreamMap> whole(kN);
  std::vector<std::vector<Value>> expected(kN);
  for (std::size_t i = 0; i < kN; ++i)
    for (int w = 0; w < sopts.waves; ++w) {
      const run::StreamMap wave =
          tenantInputs(prog, 1000u * unsigned(i + 1) + unsigned(w));
      for (const auto& [name, data] : wave)
        whole[i][name].insert(whole[i][name].end(), data.begin(), data.end());
      const std::vector<Value> out = directRun(prog, wave).at(prog.outputName);
      expected[i].insert(expected[i].end(), out.begin(), out.end());
    }

  std::vector<std::future<serve::Response>> futs;
  for (std::size_t i = 0; i < kN; ++i)
    futs.push_back(server.submit(src, copts(), whole[i], sopts));
  for (std::size_t i = 0; i < kN; ++i) {
    // Bounded wait: a request that never completes fails, not hangs.
    ASSERT_EQ(futs[i].wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "request " << i << " did not complete";
    const serve::Response r = futs[i].get();
    ASSERT_TRUE(r.ok()) << serve::toString(r.status) << ": " << r.error;
    EXPECT_EQ(r.outputs.at(prog.outputName), expected[i])
        << "request " << i << " differs from its per-wave direct runs";
  }
  server.shutdown();
}

TEST(Serve, SubmitLeavesNoThreadBehind) {
  serve::Server server;
  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());
  const run::StreamMap in = tenantInputs(prog, 31);

  // The first request compiles and warms the worker's allocator.
  ASSERT_TRUE(server.submit(src, copts(), in).get().ok());
  const long before = testing::procStatus("VmSize");
  for (int i = 0; i < 64; ++i)
    ASSERT_TRUE(server.submit(src, copts(), in).get().ok()) << "request " << i;
  // A thread left behind per request would keep its 8 MiB stack mapped.
  const long grownKiB = testing::procStatus("VmSize") - before;
  EXPECT_LT(grownKiB, 64 * 1024) << "64 requests grew VmSize by " << grownKiB
                                 << " KiB";
  server.shutdown();
}

TEST(Serve, IdleSessionsDoNotPayForDeclaredWaves) {
  serve::Server server;
  const std::string src = testing::example1Source(8);
  ASSERT_NE(server.open(src, copts()), nullptr);  // compile outside the count

  serve::SessionOptions sopts;
  sopts.waves = 1'000'000;  // the most a wire Open may declare
  const long before = testing::procStatus("VmRSS");
  std::vector<std::shared_ptr<serve::Session>> idle;
  for (int i = 0; i < 16; ++i) {
    idle.push_back(server.open(src, copts(), sopts));
    ASSERT_NE(idle.back(), nullptr);
  }
  const long grownKiB = testing::procStatus("VmRSS") - before;
  EXPECT_LT(grownKiB, 16 * 1024) << "16 idle sessions cost " << grownKiB
                                 << " KiB of RSS";
  server.shutdown();
}

TEST(Serve, AdmissionRejectsOverflowSessions) {
  serve::ServerConfig cfg;
  cfg.maxSessions = 1;
  serve::Server server(cfg);

  const std::string src = testing::example1Source(8);
  serve::Response why;
  auto first = server.open(src, copts(), {}, &why);
  ASSERT_NE(first, nullptr) << why.error;

  serve::Response second;
  EXPECT_EQ(server.open(src, copts(), {}, &second), nullptr);
  EXPECT_EQ(second.status, serve::Status::Rejected);
  EXPECT_FALSE(second.error.empty());
  EXPECT_GE(server.stats().sessionsRejected, 1u);

  // Finishing the first session frees the slot.
  first->cancel();
  first->finish();
  serve::Response third;
  EXPECT_NE(server.open(src, copts(), {}, &third), nullptr) << third.error;
  server.shutdown();
}

TEST(Serve, MalformedRequestsGetStructuredErrors) {
  serve::Server server;
  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());

  // Compile error: reported per request, not thrown at the caller.
  serve::Response r = server.submit("function broken(", copts(), {}).get();
  EXPECT_EQ(r.status, serve::Status::CompileError);
  EXPECT_FALSE(r.error.empty());

  // Missing input stream.
  r = server.submit(src, copts(), {}).get();
  EXPECT_EQ(r.status, serve::Status::BadRequest);

  // Wrong input length.
  run::StreamMap shortIn = tenantInputs(prog, 5);
  shortIn.begin()->second.pop_back();
  r = server.submit(src, copts(), shortIn).get();
  EXPECT_EQ(r.status, serve::Status::BadRequest);
  EXPECT_NE(r.error.find("expected"), std::string::npos) << r.error;

  // The server is still healthy afterwards.
  const run::StreamMap good = tenantInputs(prog, 6);
  r = server.submit(src, copts(), good).get();
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.outputs.at(prog.outputName), directRun(prog, good).at(prog.outputName));
  server.shutdown();
}

TEST(Serve, FaultedSessionFailsAloneCleanOnesComplete) {
  serve::ServerConfig cfg;
  cfg.laneWidth = 4;
  cfg.workers = 2;
  serve::Server server(cfg);

  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());

  // One tenant runs under a destructive fault plan: every result packet is
  // dropped, so its run MUST stall — and the watchdog must turn that into a
  // structured per-request diagnosis, not a hang.
  serve::SessionOptions faulty;
  faulty.hasFaults = true;
  faulty.faults.seed = 7;
  faulty.faults.dropResultPermille = 1000;
  faulty.watchdog = 2000;
  faulty.maxInstructionTimes = 200'000;

  const run::StreamMap cleanIn1 = tenantInputs(prog, 41);
  const run::StreamMap cleanIn2 = tenantInputs(prog, 42);
  auto bad = server.submit(src, copts(), tenantInputs(prog, 40), faulty);
  auto good1 = server.submit(src, copts(), cleanIn1);
  auto good2 = server.submit(src, copts(), cleanIn2);

  const serve::Response rb = bad.get();
  EXPECT_FALSE(rb.ok());
  EXPECT_TRUE(rb.status == serve::Status::Stalled ||
              rb.status == serve::Status::GuardViolation)
      << serve::toString(rb.status) << ": " << rb.error;
  EXPECT_FALSE(rb.error.empty()) << "stall must carry a diagnosis";

  // Isolation: the other tenants' requests are untouched — Ok and
  // bit-identical to their direct runs.
  const serve::Response r1 = good1.get();
  const serve::Response r2 = good2.get();
  ASSERT_TRUE(r1.ok()) << r1.error;
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_EQ(r1.outputs.at(prog.outputName),
            directRun(prog, cleanIn1).at(prog.outputName));
  EXPECT_EQ(r2.outputs.at(prog.outputName),
            directRun(prog, cleanIn2).at(prog.outputName));

  const serve::ServerStats st = server.stats();
  EXPECT_GE(st.requestsFailed, 1u);
  EXPECT_GE(st.requestsCompleted, 2u);
  server.shutdown();
}

/// A straight-line DAG with a division: its schedule is accepted, so its
/// requests batch, and a zero divisor is one tenant's data fault.
std::string quotientSource(int m = 8) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function q(A, B: array[real] [1, m] returns array[real])
  forall i in [1, m]
  construct A[i] / B[i] + 1.
  endall
endfun
)";
}

/// Submits every input as a one-shot at once to a server that batches all
/// of them (one worker, a lane per request, and a batch window long enough
/// that the batch forms before it runs).
std::vector<serve::Response> submitTogether(
    serve::Server& server, const std::string& src,
    const std::vector<run::StreamMap>& inputs) {
  std::vector<std::future<serve::Response>> futs;
  for (const run::StreamMap& in : inputs)
    futs.push_back(server.submit(src, copts(), in));
  std::vector<serve::Response> out;
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

serve::ServerConfig batchingConfig(int lanes) {
  serve::ServerConfig cfg;
  cfg.laneWidth = lanes;
  cfg.batchWindowMicros = 2'000'000;  // ends as soon as `lanes` runs queue
  return cfg;
}

TEST(Serve, PoisonedLaneFallsBackToSoloRunsCorrectly) {
  constexpr int kN = 4;
  serve::Server server(batchingConfig(kN));
  const std::string src = quotientSource(8);
  const auto prog = core::compileSource(src, copts());

  // Tenant 2 divides by zero: the batched run throws, the batch falls back,
  // and only that tenant fails, with its own diagnosis.
  std::vector<run::StreamMap> inputs;
  for (int i = 0; i < kN; ++i)
    inputs.push_back(tenantInputs(prog, 500u + unsigned(i), 0.5, 1.5));
  inputs[2].at("B")[3] = Value(0.0);
  const std::vector<serve::Response> rs = submitTogether(server, src, inputs);

  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.batchedRuns, 1u);
  EXPECT_EQ(st.batchFallbacks, 1u);
  for (int i = 0; i < kN; ++i) {
    const serve::Response& r = rs[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.stats.soloReruns, 1) << "tenant " << i;
    if (i == 2) {
      EXPECT_EQ(r.status, serve::Status::RunError) << r.error;
      EXPECT_NE(r.error.find("division by zero"), std::string::npos)
          << r.error;
      continue;
    }
    ASSERT_TRUE(r.ok()) << serve::toString(r.status) << ": " << r.error;
    EXPECT_EQ(r.outputs.at(prog.outputName),
              directRun(prog, inputs[static_cast<std::size_t>(i)])
                  .at(prog.outputName))
        << "tenant " << i << " corrupted by the fallback path";
  }
  server.shutdown();
}

TEST(Serve, MixedLaneKindsFallBackToSoloRuns) {
  constexpr int kN = 4;
  serve::Server server(batchingConfig(kN));
  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());

  // Tenant 1 sends integers to real streams.  A pack holds one lane kind,
  // so this batch cannot pack; every tenant still gets its solo result.
  std::vector<run::StreamMap> inputs;
  for (int i = 0; i < kN; ++i)
    inputs.push_back(tenantInputs(prog, 700u + unsigned(i)));
  for (auto& [name, stream] : inputs[1])
    for (Value& v : stream)
      v = Value(static_cast<std::int64_t>(v.asReal() * 100));
  const std::vector<serve::Response> rs = submitTogether(server, src, inputs);

  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.batchedRuns, 1u);
  EXPECT_EQ(st.batchFallbacks, 1u);
  for (int i = 0; i < kN; ++i) {
    const serve::Response& r = rs[static_cast<std::size_t>(i)];
    ASSERT_TRUE(r.ok()) << serve::toString(r.status) << ": " << r.error;
    EXPECT_EQ(r.stats.soloReruns, 1) << "tenant " << i;
    EXPECT_EQ(r.outputs.at(prog.outputName),
              directRun(prog, inputs[static_cast<std::size_t>(i)])
                  .at(prog.outputName))
        << "tenant " << i << " differs from its solo run";
  }
  server.shutdown();
}

TEST(Serve, DataDependentControlIsNeverBatched) {
  constexpr int kN = 4;
  serve::Server server(batchingConfig(kN));
  const std::string src = condSource(8);
  const auto prog = core::compileSource(src, copts());

  // Tenants whose C signs differ would diverge at the `C[i] > 0.` gate; the
  // program's schedule declines with DataDependentControl, so its runs are
  // never batched and nothing is rerun.
  std::vector<run::StreamMap> inputs;
  for (int i = 0; i < kN; ++i) {
    const double lo = i % 2 == 0 ? 0.1 : -1.0;
    const double hi = i % 2 == 0 ? 1.0 : -0.1;
    inputs.push_back(tenantInputs(prog, 500u + unsigned(i), lo, hi));
  }
  const std::vector<serve::Response> rs = submitTogether(server, src, inputs);

  for (int i = 0; i < kN; ++i) {
    const serve::Response& r = rs[static_cast<std::size_t>(i)];
    ASSERT_TRUE(r.ok()) << serve::toString(r.status) << ": " << r.error;
    EXPECT_EQ(r.stats.soloReruns, 0) << "tenant " << i;
    EXPECT_EQ(r.stats.maxLanes, 1) << "tenant " << i;
    EXPECT_EQ(r.outputs.at(prog.outputName),
              directRun(prog, inputs[static_cast<std::size_t>(i)])
                  .at(prog.outputName))
        << "tenant " << i << " differs from its direct run";
  }
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.batchedRuns, 0u);
  EXPECT_EQ(st.batchFallbacks, 0u);
  EXPECT_EQ(st.runsExecuted, std::uint64_t(kN));
  EXPECT_EQ(st.declinedRuns, std::uint64_t(kN));
  server.shutdown();
}

TEST(Serve, StatsSayWhichPathRan) {
  serve::Server server;
  // Example 1 (fig6) has compile-time control: it runs on the Compiled
  // scheduler and fast-forwards its steady state.  The conditional (fig5)
  // declines and runs on EventDriven, skipping nothing.
  const std::string fig6 = testing::example1Source(128);
  const std::string fig5 = condSource(128);
  const auto prog6 = core::compileSource(fig6, copts());
  const auto prog5 = core::compileSource(fig5, copts());
  const run::StreamMap in6 = tenantInputs(prog6, 11);
  const run::StreamMap in5 = tenantInputs(prog5, 12);

  const serve::Response r6 = server.submit(fig6, copts(), in6).get();
  ASSERT_TRUE(r6.ok()) << r6.error;
  EXPECT_GT(r6.stats.firingsSkipped, 0u);
  EXPECT_LT(r6.stats.firingsSkipped, r6.stats.firings);
  EXPECT_EQ(r6.outputs.at(prog6.outputName),
            directRun(prog6, in6).at(prog6.outputName));

  const serve::Response r5 = server.submit(fig5, copts(), in5).get();
  ASSERT_TRUE(r5.ok()) << r5.error;
  EXPECT_EQ(r5.stats.firingsSkipped, 0u);
  EXPECT_EQ(r5.stats.soloReruns, 0);
  EXPECT_GT(r5.stats.firings, 0u);
  EXPECT_EQ(r5.outputs.at(prog5.outputName),
            directRun(prog5, in5).at(prog5.outputName));

  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.runsExecuted, 2u);
  EXPECT_EQ(st.fastForwardedRuns, 1u);
  EXPECT_EQ(st.declinedRuns, 1u);
  server.shutdown();
}

TEST(Serve, StreamingSessionWithBackpressure) {
  serve::ServerConfig cfg;
  cfg.sessionWindowWaves = 2;  // tight window: the producer must block
  serve::Server server(cfg);

  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());
  constexpr int kWaves = 6;

  serve::SessionOptions sopts;
  sopts.waves = kWaves;
  serve::Response why;
  auto session = server.open(src, copts(), sopts, &why);
  ASSERT_NE(session, nullptr) << why.error;

  std::vector<run::StreamMap> waves;
  for (int w = 0; w < kWaves; ++w)
    waves.push_back(tenantInputs(prog, 900u + unsigned(w)));

  std::thread producer([&] {
    for (int w = 0; w < kWaves; ++w)
      for (const auto& [name, data] : waves[static_cast<std::size_t>(w)])
        ASSERT_TRUE(session->push(name, data)) << "wave " << w;
    session->closeInputs();
  });

  // Slow consumer: the window (2 waves) bounds what the server buffers; the
  // producer above cannot race ahead, it blocks in push() until we pull.
  for (int w = 0; w < kWaves; ++w) {
    const auto out = session->pull();
    ASSERT_TRUE(out.has_value()) << "wave " << w;
    EXPECT_EQ(*out,
              directRun(prog, waves[static_cast<std::size_t>(w)])
                  .at(prog.outputName))
        << "wave " << w << " differs from its direct run";
  }
  EXPECT_EQ(session->pull(), std::nullopt);  // stream finished
  producer.join();

  const serve::Response r = session->finish();
  EXPECT_TRUE(r.ok()) << serve::toString(r.status) << ": " << r.error;
  EXPECT_GT(r.stats.firings, 0u);
  server.shutdown();
}

TEST(Serve, BadPushesFailTheSession) {
  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());

  {  // Wrong wave length.
    serve::Server server;
    auto session = server.open(src, copts());
    ASSERT_NE(session, nullptr);
    EXPECT_FALSE(session->push(prog.inputs.begin()->first, {Value(1.0)}));
    const serve::Response r = session->finish();
    EXPECT_EQ(r.status, serve::Status::BadRequest);
    EXPECT_NE(r.error.find("expected"), std::string::npos) << r.error;
    server.shutdown();
  }
  {  // Unknown stream name.
    serve::Server server;
    auto session = server.open(src, copts());
    ASSERT_NE(session, nullptr);
    EXPECT_FALSE(session->push("no-such-stream", {Value(1.0)}));
    EXPECT_EQ(session->finish().status, serve::Status::BadRequest);
    server.shutdown();
  }
  {  // Push after close is refused; the session itself may already have
    // completed Ok (an early close on an unfed 1-wave session is success),
    // so only the push's verdict is deterministic here.
    serve::Server server;
    auto session = server.open(src, copts());
    ASSERT_NE(session, nullptr);
    session->closeInputs();
    run::StreamMap in = tenantInputs(prog, 1);
    EXPECT_FALSE(session->push(in.begin()->first, in.begin()->second));
    const serve::Response r = session->finish();
    EXPECT_TRUE(r.status == serve::Status::Ok ||
                r.status == serve::Status::BadRequest)
        << serve::toString(r.status);
    server.shutdown();
  }
}

TEST(Serve, CancelAndShutdownReportCancelled) {
  const std::string src = testing::example1Source(8);
  {
    serve::Server server;
    auto session = server.open(src, copts());
    ASSERT_NE(session, nullptr);
    session->cancel();
    EXPECT_EQ(session->finish().status, serve::Status::Cancelled);
    EXPECT_EQ(session->pull(), std::nullopt);
    server.shutdown();
  }
  {
    // Shutdown with a session still open: the session ends Cancelled, the
    // server neither hangs nor crashes, and new work is refused.
    serve::Server server;
    auto session = server.open(src, copts());
    ASSERT_NE(session, nullptr);
    server.shutdown();
    EXPECT_EQ(session->finish().status, serve::Status::Cancelled);
    const serve::Response after = server.submit(src, copts(), {}).get();
    EXPECT_EQ(after.status, serve::Status::Rejected);
  }
}

TEST(Serve, PerSessionKnobsMetricsAndGuards) {
  serve::Server server;
  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());
  const run::StreamMap in = tenantInputs(prog, 77);

  serve::SessionOptions sopts;
  sopts.wantMetrics = true;
  sopts.guards = true;
  const serve::Response r = server.submit(src, copts(), in, sopts).get();
  ASSERT_TRUE(r.ok()) << serve::toString(r.status) << ": " << r.error;
  EXPECT_EQ(r.outputs.at(prog.outputName), directRun(prog, in).at(prog.outputName));
  EXPECT_FALSE(r.metricsJson.empty()) << "wantMetrics produced no JSON";
  server.shutdown();
}

}  // namespace
}  // namespace valpipe

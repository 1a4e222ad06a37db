// Chaos harness for the serving layer: a live valpipe-serve socket under a
// server-side destructive fault plan.  Every accepted request must complete
// bit-identical to its fault-free direct run — the sessions are supervised
// (recover::superviseRun) and the degradation ladder strips the destructive
// classes on retry, so chaos costs attempts, never answers.  Also covers the
// overload surface over the wire: tenant rate limiting and lowest-priority
// queue shedding both yield Status::Overloaded plus a Retry-After hint.  And
// the socket path's own bounds: a one-shot with more waves than the session
// window completes, a connection's thread ends with its connection, and a
// frame that sets the reserved scheduler byte is refused.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "serve/wire.hpp"
#include "testing.hpp"

namespace valpipe {
namespace {

core::CompileOptions copts() {
  core::CompileOptions o;
  o.lower = true;
  return o;
}

std::uint8_t statusByte(serve::Status s) {
  return static_cast<std::uint8_t>(s);
}

run::StreamMap tenantInputs(const core::CompiledProgram& prog, unsigned seed) {
  val::ArrayMap arrays;
  unsigned k = 0;
  for (const auto& [name, range] : prog.inputs)
    arrays[name] = testing::randomArray(range, seed + 31 * k++);
  return testing::inputsFor(prog, arrays);
}

run::StreamMap directRun(const core::CompiledProgram& prog,
                         const run::StreamMap& inputs) {
  machine::RunOptions ro;
  ro.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
  const auto res = machine::simulate(
      prog.graph, machine::MachineConfig::unit(), inputs, ro);
  EXPECT_TRUE(res.completed) << res.note;
  return res.outputs;
}

/// A socket path of this process's own: ctest runs each test alone and the
/// whole binary as one suite at the same time, and two servers must never
/// bind one path.
std::string socketPath(const std::string& name) {
  return ::testing::TempDir() + name + "-" + std::to_string(::getpid()) +
         ".sock";
}

/// A destructive plan aggressive enough that a clean first attempt across
/// several runs is (astronomically) unlikely, so the supervised-retry path
/// is actually exercised.
fault::Plan chaosPlan() {
  fault::Plan p;
  p.seed = 99;
  p.dropResultPermille = 250;
  p.dupResultPermille = 150;
  p.dropAckPermille = 150;
  p.dupAckPermille = 100;
  return p;
}

TEST(ServeChaos, SocketRunsUnderDestructiveChaosCompleteBitIdentical) {
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.chaosEnabled = true;
  cfg.chaos = chaosPlan();
  cfg.retry.maxAttempts = 6;
  cfg.retry.sleepBetweenRetries = false;
  cfg.retry.ensureWatchdog = 500;  // dropped packets stall; bound each attempt
  serve::Server server(cfg);

  const std::string path = socketPath("valpipe-chaos");
  serve::Listener listener(server, path);
  std::thread accept([&] { listener.run(); });

  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());

  constexpr int kClients = 6;
  std::vector<run::StreamMap> inputs;
  std::vector<run::StreamMap> expected;
  for (int i = 0; i < kClients; ++i) {
    inputs.push_back(tenantInputs(prog, 700u + unsigned(i)));
    expected.push_back(directRun(prog, inputs.back()));
  }

  std::vector<serve::ReplyMsg> replies(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i)
    clients.emplace_back([&, i] {
      const int fd = serve::connectTo(path);
      serve::WireOptions o;
      replies[static_cast<std::size_t>(i)] =
          serve::requestRun(fd, src, o, inputs[static_cast<std::size_t>(i)]);
      ::close(fd);
    });
  for (auto& t : clients) t.join();

  std::uint32_t maxAttempts = 1;
  for (int i = 0; i < kClients; ++i) {
    const serve::ReplyMsg& r = replies[static_cast<std::size_t>(i)];
    ASSERT_EQ(r.type, serve::MsgType::RunResult) << "client " << i << ": "
                                                 << r.error;
    ASSERT_EQ(r.status, statusByte(serve::Status::Ok))
        << "client " << i << ": " << r.error;
    EXPECT_EQ(r.outputs.at(prog.outputName),
              expected[static_cast<std::size_t>(i)].at(prog.outputName))
        << "client " << i << " not bit-identical to its fault-free run";
    maxAttempts = std::max(maxAttempts, r.attempts);
  }
  // The chaos actually bit: at least one run needed a supervised retry.
  // (P[all first attempts clean] is below 1e-9 at these per-mille rates.)
  EXPECT_GT(maxAttempts, 1u);
  EXPECT_GE(server.stats().wavesRecovered, 1u);

  // A Shutdown frame drains the listener; the accept loop exits cleanly.
  const int fd = serve::connectTo(path);
  serve::requestShutdown(fd);
  ::close(fd);
  listener.stop();
  accept.join();
  server.shutdown();
}

TEST(ServeChaos, WireRunWithMoreWavesThanTheWindow) {
  serve::Server server;  // default window: 4 waves in flight per session
  const std::string path = socketPath("valpipe-waves");
  serve::Listener listener(server, path);
  std::thread accept([&] { listener.run(); });

  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());
  serve::WireOptions o;
  o.waves = 9;
  run::StreamMap whole;
  std::vector<Value> expected;
  for (unsigned w = 0; w < o.waves; ++w) {
    const run::StreamMap wave = tenantInputs(prog, 800u + w);
    for (const auto& [name, data] : wave)
      whole[name].insert(whole[name].end(), data.begin(), data.end());
    const std::vector<Value> out = directRun(prog, wave).at(prog.outputName);
    expected.insert(expected.end(), out.begin(), out.end());
  }

  const int fd = serve::connectTo(path);
  // Bounded wait: a reply that never comes fails the read, not the suite.
  const timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  serve::ReplyMsg r;
  std::string noReply;
  try {
    r = serve::requestRun(fd, src, o, whole);
  } catch (const std::exception& e) {
    noReply = e.what();
  }
  ::close(fd);
  listener.stop();
  server.shutdown();  // cancels a request still running, so run() returns
  accept.join();

  ASSERT_TRUE(noReply.empty()) << "no RunResult: " << noReply;
  ASSERT_EQ(r.type, serve::MsgType::RunResult) << r.error;
  ASSERT_EQ(r.status, statusByte(serve::Status::Ok)) << r.error;
  EXPECT_EQ(r.outputs.at(prog.outputName), expected);
}

TEST(ServeChaos, ReservedSchedulerByteIsABadRequestOverTheSocket) {
  serve::Server server;
  const std::string path = socketPath("valpipe-reserved");
  serve::Listener listener(server, path);
  std::thread accept([&] { listener.run(); });

  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());
  const run::StreamMap in = tenantInputs(prog, 90);

  // The options byte after fuseFifos once chose the scheduler; 3 asked for
  // the unoptimized Reference stepper.  It is reserved as zero now.
  std::vector<std::uint8_t> hostile =
      serve::encodeRun(src, serve::WireOptions{}, in);
  const std::size_t at = 1 + 4 + src.size() + 1;  // type, source, fuseFifos
  ASSERT_EQ(hostile[at], 0);
  hostile[at] = 3;

  const timeval timeout{30, 0};
  const int fd = serve::connectTo(path);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  serve::writeFrame(fd, hostile);
  const auto frame = serve::readFrame(fd);
  ASSERT_TRUE(frame.has_value());
  const serve::ReplyMsg bad = serve::parseReply(frame->data(), frame->size());
  EXPECT_EQ(bad.type, serve::MsgType::Error);
  EXPECT_EQ(bad.status, statusByte(serve::Status::BadRequest)) << bad.error;
  EXPECT_FALSE(serve::readFrame(fd).has_value()) << "connection left open";
  ::close(fd);

  // The same server still answers a well-formed request, bit-identical to a
  // direct EventDriven run.
  const int ok = serve::connectTo(path);
  ::setsockopt(ok, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  const serve::ReplyMsg good =
      serve::requestRun(ok, src, serve::WireOptions{}, in);
  ::close(ok);
  listener.stop();
  accept.join();
  server.shutdown();

  ASSERT_EQ(good.type, serve::MsgType::RunResult) << good.error;
  ASSERT_EQ(good.status, statusByte(serve::Status::Ok)) << good.error;
  EXPECT_EQ(good.outputs.at(prog.outputName),
            directRun(prog, in).at(prog.outputName));
}

TEST(ServeChaos, EndedConnectionsLeaveNoThreadBehind) {
  serve::Server server;
  const std::string path = socketPath("valpipe-conns");
  serve::Listener listener(server, path);
  std::thread accept([&] { listener.run(); });
  const long threads = testing::procStatus("Threads");

  // One Ping connection, then wait until its service thread has exited, so
  // the next connection can reuse that thread's stack and malloc arena.
  auto pingOnce = [&] {
    const int fd = serve::connectTo(path);
    serve::writeFrame(fd, serve::encodePing());
    const auto frame = serve::readFrame(fd);
    ::close(fd);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(serve::parseReply(frame->data(), frame->size()).type,
              serve::MsgType::Pong);
    for (int ms = 0; testing::procStatus("Threads") > threads; ++ms) {
      ASSERT_LT(ms, 5000) << "connection thread still running";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  pingOnce();  // warms the accept thread's allocator
  const long before = testing::procStatus("VmSize");
  for (int i = 0; i < 64 && !HasFatalFailure(); ++i) pingOnce();
  // A thread kept until run() returns would keep its 8 MiB stack mapped.
  const long grownKiB = testing::procStatus("VmSize") - before;
  EXPECT_LT(grownKiB, 64 * 1024) << "64 connections grew VmSize by "
                                 << grownKiB << " KiB";

  listener.stop();
  accept.join();
  server.shutdown();
}

TEST(ServeChaos, RateLimitedTenantGetsOverloadedWithRetryAfterOverTheWire) {
  serve::ServerConfig cfg;
  cfg.rateWavesPerSecond = 0.5;  // refills far slower than the test runs
  cfg.rateBurstWaves = 1;
  serve::Server server(cfg);

  const std::string path = socketPath("valpipe-rate");
  serve::Listener listener(server, path);
  std::thread accept([&] { listener.run(); });

  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());
  const run::StreamMap in = tenantInputs(prog, 55);

  const int fd = serve::connectTo(path);
  serve::WireOptions hog;
  hog.tenant = "hog";
  // The burst admits exactly one wave; the second request must be refused
  // with a machine-readable wait hint, not queued and not dropped silently.
  serve::ReplyMsg first = serve::requestRun(fd, src, hog, in);
  ASSERT_EQ(first.status, statusByte(serve::Status::Ok)) << first.error;
  EXPECT_EQ(first.outputs.at(prog.outputName),
            directRun(prog, in).at(prog.outputName));

  serve::ReplyMsg second = serve::requestRun(fd, src, hog, in);
  EXPECT_EQ(second.status, statusByte(serve::Status::Overloaded))
      << second.error;
  EXPECT_GT(second.retryAfterMillis, 0);
  EXPECT_NE(second.error.find("rate limit"), std::string::npos)
      << second.error;

  // Another tenant's bucket is untouched: admission is per tenant.
  serve::WireOptions calm;
  calm.tenant = "calm";
  serve::ReplyMsg other = serve::requestRun(fd, src, calm, in);
  EXPECT_EQ(other.status, statusByte(serve::Status::Ok)) << other.error;
  ::close(fd);

  EXPECT_GE(server.stats().rateLimited, 1u);
  listener.stop();
  accept.join();
  server.shutdown();
}

TEST(ServeChaos, FullQueueShedsTheLowestPriorityRun) {
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.maxQueuedRuns = 1;
  cfg.overloadRetryAfterMillis = 75;
  // Supervised retries keep destructive faults (no degradation ladder), so a
  // total-drop plan fails every attempt and the wall-clock backoff sleeps
  // between attempts pin the single worker for ~1.2 s.
  cfg.retry.stripDestructiveFaults = false;
  cfg.retry.backoffInitialMillis = 400;
  cfg.retry.backoffFactor = 2.0;
  serve::Server server(cfg);

  const std::string src = testing::example1Source(8);
  const auto prog = core::compileSource(src, copts());

  serve::SessionOptions blocker;
  blocker.hasFaults = true;
  blocker.faults.seed = 7;
  blocker.faults.dropResultPermille = 1000;
  blocker.watchdog = 1500;
  blocker.maxInstructionTimes = 200'000;
  blocker.maxAttempts = 3;
  blocker.priority = 5;
  auto blocked = server.submit(src, copts(), tenantInputs(prog, 60), blocker);
  // Let the worker dequeue it so the queue is empty when the next run lands.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  serve::SessionOptions low;
  low.priority = 0;
  auto lowFut = server.submit(src, copts(), tenantInputs(prog, 61), low);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The queue (capacity 1) now holds the low-priority run; a higher-priority
  // arrival sheds it rather than being refused itself.
  serve::SessionOptions high;
  high.priority = 3;
  const run::StreamMap highIn = tenantInputs(prog, 62);
  auto highFut = server.submit(src, copts(), highIn, high);

  const serve::Response shed = lowFut.get();
  EXPECT_EQ(shed.status, serve::Status::Overloaded)
      << serve::toString(shed.status) << ": " << shed.error;
  EXPECT_EQ(shed.retryAfterMillis, 75);

  const serve::Response kept = highFut.get();
  ASSERT_TRUE(kept.ok()) << serve::toString(kept.status) << ": " << kept.error;
  EXPECT_EQ(kept.outputs.at(prog.outputName),
            directRun(prog, highIn).at(prog.outputName));

  const serve::Response rb = blocked.get();
  EXPECT_FALSE(rb.ok());  // the blocker was genuinely stalled, not dropped
  EXPECT_GE(server.stats().runsShed, 1u);
  server.shutdown();
}

}  // namespace
}  // namespace valpipe

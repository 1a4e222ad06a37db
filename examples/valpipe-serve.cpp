// valpipe-serve — multi-tenant serving daemon + client for Val programs.
//
// Server modes:
//   valpipe-serve --socket PATH [--lanes B] [--workers N] [--max-sessions M]
//                 [--batch-window-us U] [--max-cached N]
//                 [--rate WAVES_PER_SEC] [--rate-burst WAVES]
//                 [--chaos SPEC] [--retries N]
//       Listen on an AF_UNIX socket; one service thread per connection.
//       Exits 0 after a client sends --shutdown.  --chaos runs every
//       session that brings no fault plan of its own under the given
//       fault::parsePlan spec, guarded and supervised with up to
//       --retries attempts (the CI chaos smoke job drives this).
//   valpipe-serve --stdio [server flags]
//       Serve exactly one connection over stdin/stdout (for harnesses that
//       spawn the server as a child and speak the wire protocol directly).
//
// Client modes (against a --socket server):
//   valpipe-serve --request PATH file.val [--waves N] [--no-fuse] [--verify]
//                 [--tenant T] [--priority P] [--retries N]
//       One-shot run with valc's ramp inputs (0.01 * (k % 97)).  With
//       --verify, also compiles and runs the program locally (EventDriven)
//       and bit-compares the server's outputs against the local run.
//       Overloaded replies print the server's Retry-After hint.
//   valpipe-serve --shutdown PATH
//       Ask the server to drain and exit.
//   valpipe-serve --ping PATH
//
// Exit codes: 0 success (and verification, when asked), 1 usage/compile/
// protocol errors, 2 output mismatch under --verify, 3 server-reported
// stall/guard violation — aligned with valc so harnesses can share checks.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/compiler.hpp"
#include "fault/plan.hpp"
#include "machine/engine.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "serve/wire.hpp"

namespace {

using namespace valpipe;

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: valpipe-serve --socket PATH [--lanes B] [--workers N]"
      " [--max-sessions M] [--batch-window-us U] [--max-cached N]\n"
      "                     [--rate WAVES_PER_SEC] [--rate-burst WAVES]"
      " [--chaos SPEC] [--retries N]\n"
      "       valpipe-serve --stdio [server flags]\n"
      "       valpipe-serve --request PATH file.val [--waves N] [--no-fuse]"
      " [--verify] [--tenant T] [--priority P] [--retries N]\n"
      "       valpipe-serve --shutdown PATH | --ping PATH\n");
  std::exit(1);
}

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "valpipe-serve: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::stringstream buf;
  buf << file.rdbuf();
  return buf.str();
}

/// valc's ramp inputs, so server runs are comparable with valc runs.
run::StreamMap rampInputs(const core::CompiledProgram& prog, int waves) {
  run::StreamMap streams;
  for (const auto& [name, range] : prog.inputs) {
    std::vector<Value> v;
    const std::int64_t per = prog.inputLengthPerWave(name);
    for (std::int64_t k = 0; k < per * waves; ++k)
      v.push_back(Value(0.01 * static_cast<double>(k % 97)));
    streams[name] = std::move(v);
  }
  return streams;
}

int clientRequest(const std::string& path, const std::string& valFile,
                  int waves, bool fuse, bool verify,
                  const std::string& tenant, int priority, int retries) {
  const std::string source = slurp(valFile);
  serve::WireOptions wo;
  wo.fuseFifos = fuse;
  wo.waves = static_cast<std::uint32_t>(waves);
  wo.tenant = tenant;
  wo.priority = static_cast<std::uint32_t>(std::max(0, priority));
  wo.maxAttempts = static_cast<std::uint32_t>(std::max(1, retries));

  core::CompileOptions copts = wo.compileOptions();
  core::CompiledProgram prog;
  try {
    prog = core::compileSource(source, copts);
  } catch (const CompileError& e) {
    std::fprintf(stderr, "valpipe-serve: %s\n", e.what());
    return 1;
  }
  const run::StreamMap inputs = rampInputs(prog, waves);

  int fd = -1;
  serve::ReplyMsg r;
  try {
    fd = serve::connectTo(path);
    r = serve::requestRun(fd, source, wo, inputs);
  } catch (const std::exception& e) {
    if (fd >= 0) ::close(fd);
    std::fprintf(stderr, "valpipe-serve: %s\n", e.what());
    return 1;
  }
  ::close(fd);

  const auto status = static_cast<serve::Status>(r.status);
  if (r.type == serve::MsgType::Error || status != serve::Status::Ok) {
    std::fprintf(stderr, "valpipe-serve: %s: %s\n", serve::toString(status),
                 r.error.c_str());
    if (status == serve::Status::Overloaded && r.retryAfterMillis > 0)
      std::fprintf(stderr, "valpipe-serve: retry after %lld ms\n",
                   static_cast<long long>(r.retryAfterMillis));
    return (status == serve::Status::Stalled ||
            status == serve::Status::GuardViolation)
               ? 3
               : 1;
  }

  const auto it = r.outputs.find(prog.outputName);
  const std::size_t n = it == r.outputs.end() ? 0 : it->second.size();
  std::printf("%s -> %s: %zu values in %lld us (%s, lanes %u, attempts %u)\n",
              valFile.c_str(), prog.outputName.c_str(), n,
              static_cast<long long>(r.latencyMicros),
              r.cacheHit ? "cache hit" : "compiled", r.maxLanes, r.attempts);

  if (verify) {
    // The engine's waves=N mode replays the SAME per-wave inputs each wave;
    // a serve session streams a DIFFERENT wave each time.  Verify the way
    // the server runs: one single-wave simulate per chunk, concatenated.
    std::vector<Value> localOut;
    for (int w = 0; w < waves; ++w) {
      run::StreamMap waveIn;
      for (const auto& [name, whole] : inputs) {
        const auto per =
            static_cast<std::size_t>(prog.inputLengthPerWave(name));
        waveIn[name] = std::vector<Value>(
            whole.begin() + static_cast<long>(w * per),
            whole.begin() + static_cast<long>((w + 1) * per));
      }
      machine::RunOptions ro;
      ro.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
      const machine::MachineResult local = machine::simulate(
          prog.graph, machine::MachineConfig::unit(), waveIn, ro);
      const auto& lo = local.outputs.at(prog.outputName);
      localOut.insert(localOut.end(), lo.begin(), lo.end());
    }
    if (it == r.outputs.end() || it->second != localOut) {
      std::fprintf(stderr,
                   "valpipe-serve: VERIFY FAILED: served outputs differ from"
                   " local single run\n");
      return 2;
    }
    std::printf("verified: outputs identical to local single run\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socketPath, requestPath, shutdownPath, pingPath, valFile;
  std::string tenant, chaosSpec;
  bool stdio = false, fuse = true, verify = false;
  int waves = 1, priority = 0, retries = 1;
  serve::ServerConfig cfg;
  cfg.laneWidth = 8;
  cfg.batchWindowMicros = 500;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> std::string {
      if (a + 1 >= argc) usage();
      return argv[++a];
    };
    if (arg == "--socket") socketPath = next();
    else if (arg == "--stdio") stdio = true;
    else if (arg == "--request") requestPath = next();
    else if (arg == "--shutdown") shutdownPath = next();
    else if (arg == "--ping") pingPath = next();
    else if (arg == "--lanes") cfg.laneWidth = std::atoi(next().c_str());
    else if (arg == "--workers") cfg.workers = std::atoi(next().c_str());
    else if (arg == "--max-sessions") cfg.maxSessions = std::atoi(next().c_str());
    else if (arg == "--batch-window-us")
      cfg.batchWindowMicros = std::atoi(next().c_str());
    else if (arg == "--max-cached")
      cfg.maxCachedPrograms = static_cast<std::size_t>(
          std::max(0, std::atoi(next().c_str())));
    else if (arg == "--rate") cfg.rateWavesPerSecond = std::atof(next().c_str());
    else if (arg == "--rate-burst") cfg.rateBurstWaves = std::atof(next().c_str());
    else if (arg == "--chaos") chaosSpec = next();
    else if (arg == "--retries") retries = std::atoi(next().c_str());
    else if (arg == "--tenant") tenant = next();
    else if (arg == "--priority") priority = std::atoi(next().c_str());
    else if (arg == "--waves") waves = std::atoi(next().c_str());
    else if (arg == "--no-fuse") fuse = false;
    else if (arg == "--verify") verify = true;
    else if (arg.rfind("--", 0) == 0) usage();
    else valFile = arg;
  }

  try {
    if (!chaosSpec.empty()) {
      cfg.chaosEnabled = true;
      cfg.chaos = fault::parsePlan(chaosSpec);
    }
    if (retries > 1) cfg.retry.maxAttempts = retries;
    if (!socketPath.empty()) {
      serve::Server server(cfg);
      serve::Listener listener(server, socketPath);
      std::fprintf(stderr,
                   "valpipe-serve: listening on %s (lanes %d, workers %d,"
                   " max sessions %d)\n",
                   socketPath.c_str(), cfg.laneWidth, cfg.workers,
                   cfg.maxSessions);
      listener.run();  // returns after a client Shutdown
      server.shutdown();
      const serve::ServerStats st = server.stats();
      const serve::CacheStats cs = server.cacheStats();
      std::fprintf(stderr,
                   "valpipe-serve: served %llu requests (%llu failed),"
                   " %llu runs / %llu lanes (%llu batched, %llu fallbacks,"
                   " %llu fast-forwarded, %llu declined),"
                   " cache %llu hits / %llu compiles\n",
                   static_cast<unsigned long long>(st.requestsCompleted),
                   static_cast<unsigned long long>(st.requestsFailed),
                   static_cast<unsigned long long>(st.runsExecuted),
                   static_cast<unsigned long long>(st.lanesExecuted),
                   static_cast<unsigned long long>(st.batchedRuns),
                   static_cast<unsigned long long>(st.batchFallbacks),
                   static_cast<unsigned long long>(st.fastForwardedRuns),
                   static_cast<unsigned long long>(st.declinedRuns),
                   static_cast<unsigned long long>(cs.hits),
                   static_cast<unsigned long long>(cs.compiles));
      return 0;
    }
    if (stdio) {
      serve::Server server(cfg);
      serve::serveConnection(server, STDIN_FILENO, STDOUT_FILENO);
      server.shutdown();
      return 0;
    }
    if (!requestPath.empty()) {
      if (valFile.empty()) usage();
      return clientRequest(requestPath, valFile, waves, fuse, verify, tenant,
                           priority, retries);
    }
    if (!shutdownPath.empty()) {
      const int fd = serve::connectTo(shutdownPath);
      serve::requestShutdown(fd);
      ::close(fd);
      return 0;
    }
    if (!pingPath.empty()) {
      const int fd = serve::connectTo(pingPath);
      serve::writeFrame(fd, serve::encodePing());
      auto frame = serve::readFrame(fd);
      ::close(fd);
      if (!frame) return 1;
      return serve::parseReply(frame->data(), frame->size()).type ==
                     serve::MsgType::Pong
                 ? 0
                 : 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "valpipe-serve: %s\n", e.what());
    return 1;
  }
  usage();
}

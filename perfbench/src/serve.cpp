// serve: an in-process serve::Server behind a serve::Listener on an AF_UNIX
// socket, loaded by kConnections closed-loop clients of this process.
//
// Each client sends its next one-shot Run only after the previous reply
// (serveConnection serves one request per connection at a time).  The mix
// is three fig6 forall requests to one fig5 conditional: fig6 lane batches
// stay together, fig5's data-dependent control diverges and reruns solo, so
// the lane layer serves one use batching helps and one it hurts.
//
// Every run starts its own fresh servers and never recycles one mid-run:
// Server::submit() starts a feeder thread per request that only shutdown()
// joins, and serve.vm_mb_per_req shows that growth as a number.
//
// The host's speed is sampled only while the server idles: the clients are
// parked between requests for each sample.  Under load the kernel would
// time serve's own CPU use, so a change to that use would move the scaling
// as well as the figures.  Samples taken only before and after the
// measured phase missed the drift in between.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>

#include "programs.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "serve/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = vp::serve;

constexpr std::int64_t kM = 1024;
constexpr int kWaves = 4;
constexpr int kConnections = 4;
constexpr int kSetups = 15;
constexpr int kPool = 16;
/// Compiles of fig6 timed for compile_ms, spread over the measured phase,
/// each followed by one host-speed sample on the idle server.
constexpr int kCompileSamples = 100;
/// peak_rss_mb is read when this many requests have completed.  The
/// feeder-thread leak grows RSS by about 8 KiB per request, so the peak at
/// the end of the phase would follow throughput rather than memory use.
constexpr std::size_t kRssRequests = 5000;

serve::ServerConfig serverConfig() {
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.laneWidth = 8;            // valpipe-serve's default
  cfg.batchWindowMicros = 500;  // valpipe-serve's default
  return cfg;
}

serve::WireOptions wireOptions() {
  serve::WireOptions o;
  o.waves = kWaves;
  return o;
}

/// One served program: its source, a reference build, and a pool of
/// kWaves-wave inputs with the digest each reply must come back with.
struct Served {
  const char* name;
  std::string source;
  Built built;
  std::vector<vp::run::StreamMap> pool;  ///< whole-request inputs
  std::vector<std::uint64_t> expected;   ///< filled after the measured phase
  double steadyRate = 0.0;
};

/// Server, listener and the clients' connections; tears down in reverse.
class Live {
 public:
  explicit Live(const std::string& path)
      : server_(serverConfig()), listener_(server_, path) {
    acceptor_ = std::thread([this] { listener_.run(); });
  }
  ~Live() {
    for (int fd : fds) ::close(fd);
    listener_.stop();
    acceptor_.join();
    server_.shutdown();
  }
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;

  serve::Server& server() { return server_; }
  std::vector<int> fds;  ///< one client connection each

 private:
  serve::Server server_;
  serve::Listener listener_;
  std::thread acceptor_;
};

/// Parks the clients between requests so that work can run while the
/// server idles.
class Gate {
 public:
  explicit Gate(int clients) : clients_(clients) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  /// Client, before each request: waits while the gate is closed.
  void pass() {
    std::unique_lock lk(mu_);
    if (!closed_) return;
    ++parked_;
    cv_.notify_all();
    cv_.wait(lk, [&] { return !closed_; });
    --parked_;
  }
  /// Client, after its last request.
  void leave() {
    std::lock_guard lk(mu_);
    ++left_;
    cv_.notify_all();
  }
  /// Runs `work` once every client is parked or gone, then reopens.
  template <class F>
  void whileParked(F&& work) {
    {
      std::unique_lock lk(mu_);
      closed_ = true;
      cv_.wait(lk, [&] { return parked_ + left_ == clients_; });
    }
    struct Reopen {
      Gate* gate;
      ~Reopen() {
        {
          std::lock_guard lk(gate->mu_);
          gate->closed_ = false;
        }
        gate->cv_.notify_all();
      }
    } reopen{this};
    work();
  }

 private:
  const int clients_;
  std::mutex mu_;
  std::condition_variable cv_;
  int parked_ = 0, left_ = 0;  ///< guarded by mu_
  bool closed_ = false;        ///< guarded by mu_
};

/// One request as its client saw it.
struct Record {
  int program = 0, member = 0;
  double seconds = 0.0;
  double endS = 0.0;  ///< completion, in measured-phase seconds out of pauses
  bool ok = false;
  std::uint64_t digest = 0;
  std::int64_t outputElems = 0;
  double serverMs = 0.0;
  std::uint64_t firings = 0;
  bool traced = false;
};

/// One Run round trip through the public client calls, each in a span when
/// `traced`.
serve::ReplyMsg roundTrip(Tracer& tr, bool traced, std::uint32_t request,
                          int fd, const Served& p,
                          const vp::run::StreamMap& inputs) {
  std::vector<std::uint8_t> payload;
  {
    auto s = tr.spanIf(traced, "wire.encode", request);
    payload = serve::encodeRun(p.source, wireOptions(), inputs);
  }
  std::optional<std::vector<std::uint8_t>> frame;
  {
    auto s = tr.spanIf(traced, "serve.transport", request);
    serve::writeFrame(fd, payload);
    frame = serve::readFrame(fd);
  }
  if (!frame) throw serve::ProtocolError("connection closed before reply");
  auto s = tr.spanIf(traced, "wire.decode", request);
  return serve::parseReply(frame->data(), frame->size());
}

bool replyOk(const serve::ReplyMsg& r) {
  return r.type == serve::MsgType::RunResult &&
         static_cast<serve::Status>(r.status) == serve::Status::Ok;
}

/// Starts a server, connects the clients and fills the program cache with
/// the first request of each program.
std::unique_ptr<Live> setUp(Tracer& tr, const std::string& path,
                            const std::vector<Served>& programs) {
  auto live = std::make_unique<Live>(path);
  for (int c = 0; c < kConnections; ++c)
    live->fds.push_back(serve::connectTo(path));
  for (const Served& p : programs) {
    const serve::ReplyMsg r = roundTrip(tr, true, 0, live->fds[0], p, p.pool[0]);
    if (!replyOk(r))
      throw std::runtime_error(std::string("serve: cache fill of ") + p.name +
                               " failed: " + r.error);
  }
  return live;
}

/// Digest of direct per-wave EventDriven runs of `inputs`, concatenated
/// (the valpipe-serve --verify rule).
std::uint64_t directDigest(Tracer& tr, Served& p,
                           const vp::run::StreamMap& inputs) {
  const vp::core::CompiledProgram& prog = p.built.program;
  std::vector<vp::Value> whole;
  for (int w = 0; w < kWaves; ++w) {
    vp::run::StreamMap wave;
    for (const auto& [name, values] : inputs) {
      const auto per = static_cast<long>(prog.inputLengthPerWave(name));
      wave[name].assign(values.begin() + w * per, values.begin() + (w + 1) * per);
    }
    const vp::machine::MachineResult r =
        simulate(tr, p.built, wave, vp::machine::SchedulerKind::EventDriven);
    if (p.steadyRate == 0.0) p.steadyRate = r.steadyRate(prog.outputName);
    const std::vector<vp::Value>& o = r.outputs.at(prog.outputName);
    whole.insert(whole.end(), o.begin(), o.end());
  }
  return digest(whole);
}

double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0
                    : std::accumulate(xs.begin(), xs.end(), 0.0) /
                          static_cast<double>(xs.size());
}

}  // namespace

Outcome runServe(const Args& args, Tracer& tr) {
  Outcome out;
  const std::string path =
      args.workdir + "/serve-" + std::to_string(::getpid()) + ".sock";
  const vp::core::CompileOptions copts = wireOptions().compileOptions();

  std::vector<Served> programs;
  programs.push_back({"fig6", sourceText(Source::Forall, kM), {}, {}, {}, 0.0});
  programs.push_back({"fig5", sourceText(Source::Conditional, kM), {}, {}, {}, 0.0});
  std::mt19937_64 rng(args.seed);
  {
    auto root = tr.span("bench.check");
    for (Served& p : programs) {
      p.built = compileProgram(tr, p.source, copts);
      for (int j = 0; j < kPool; ++j) {
        vp::run::StreamMap whole;
        for (int w = 0; w < kWaves; ++w)
          for (auto& [name, values] : randomInputs(p.built.program, rng))
            whole[name].insert(whole[name].end(), values.begin(), values.end());
        p.pool.push_back(std::move(whole));
      }
    }
  }

  // Set-up, kSetups times on fresh servers; the last one serves the run.
  std::vector<double> setupS;
  std::unique_ptr<Live> live;
  for (int k = 0; k < kSetups; ++k) {
    live.reset();
    auto root = tr.span("bench.setup");
    const auto t0 = Clock::now();
    live = setUp(tr, path, programs);
    setupS.push_back(secondsSince(t0));
  }

  // Measured phase: closed-loop clients until the time is up and p99 has
  // enough samples.  A traced run traces every other request of each client.
  // Its clock stops while the clients are parked.
  const serve::ServerStats before = live->server().stats();
  const serve::CacheStats cacheBefore = live->server().cacheStats();
  const double vmBefore = vmSizeMb();
  const std::size_t needed = std::max(samplesNeeded(99), kRssRequests);
  std::atomic<std::size_t> done{0};
  double rssMb = 0.0;  ///< written once, by the client that completes kRssRequests
  std::vector<std::vector<Record>> perClient(kConnections);
  Gate gate(kConnections);
  std::atomic<std::int64_t> parkedNs{0};
  const auto start = Clock::now();
  auto active = [&] {
    return secondsSince(start) - static_cast<double>(parkedNs.load()) * 1e-9;
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c)
    clients.emplace_back([&, c] {
      std::mt19937_64 crng(args.seed * 1000003u + static_cast<unsigned>(c));
      std::uniform_int_distribution<int> pick(0, kPool - 1);
      const int fd = live->fds[static_cast<std::size_t>(c)];
      for (std::uint32_t j = 0;; ++j) {
        gate.pass();
        const double t = active();
        if ((t >= args.seconds && done.load() >= needed) || t >= 3 * args.seconds)
          break;
        Record rec;
        rec.program = (j + static_cast<std::uint32_t>(c)) % 4 == 0 ? 1 : 0;
        rec.member = pick(crng);
        rec.traced = args.trace && j % 2 == 0;
        const std::uint32_t request = static_cast<std::uint32_t>(c) << 24 | j;
        const Served& p = programs[static_cast<std::size_t>(rec.program)];
        const auto t0 = Clock::now();
        try {
          auto root = tr.spanIf(rec.traced, "bench.request", request);
          const serve::ReplyMsg r = roundTrip(
              tr, rec.traced, request, fd, p,
              p.pool[static_cast<std::size_t>(rec.member)]);
          rec.seconds = secondsSince(t0);
          const auto o = r.outputs.find(p.built.program.outputName);
          rec.ok = replyOk(r) && o != r.outputs.end();
          if (rec.ok) {
            rec.digest = digest(o->second);
            rec.outputElems = static_cast<std::int64_t>(o->second.size());
          }
          rec.serverMs = static_cast<double>(r.latencyMicros) / 1e3;
          rec.firings = r.firings;
        } catch (const std::exception&) {
          rec.seconds = secondsSince(t0);
          rec.ok = false;
        }
        rec.endS = active();
        perClient[static_cast<std::size_t>(c)].push_back(rec);
        if (++done == kRssRequests) rssMb = peakRssMb();
      }
      gate.leave();
    });
  // Meanwhile this thread times compiles of the served programs — what a
  // cache miss costs on a busy server — and after each one samples the
  // host's speed with the clients parked.
  std::vector<double> compileMs;
  std::string compileError;
  try {
    for (int k = 0; k < kCompileSamples; ++k) {
      std::this_thread::sleep_until(
          start +
          std::chrono::duration<double>(args.seconds * k / kCompileSamples));
      const auto t0 = Clock::now();
      compileProgram(tr, programs[0].source, copts);
      compileMs.push_back(secondsSince(t0) * 1e3);
      gate.whileParked([&] {
        const auto p0 = Clock::now();
        out.host.sample();
        parkedNs += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - p0)
                        .count();
      });
    }
  } catch (const std::exception& e) {
    compileError = e.what();  // rethrown once the clients are joined
  }
  for (std::thread& t : clients) t.join();
  if (!compileError.empty())
    throw std::runtime_error("serve: fig6 compile failed: " + compileError);
  const double measured = active();
  const serve::ServerStats after = live->server().stats();
  const serve::CacheStats cacheAfter = live->server().cacheStats();
  const double vmAfter = vmSizeMb();
  live.reset();

  // Checks after the measured phase: every reply bit-identical to direct
  // per-wave EventDriven runs of its inputs.
  std::vector<Record> recs;
  for (const auto& v : perClient) recs.insert(recs.end(), v.begin(), v.end());
  {
    auto root = tr.span("bench.check");
    for (Served& p : programs)
      for (const vp::run::StreamMap& in : p.pool)
        p.expected.push_back(directDigest(tr, p, in));
  }
  std::size_t mismatches = 0;
  std::vector<std::pair<double, double>> okReplies, okElems;
  for (const Record& r : recs) {
    const bool ok =
        r.ok && r.digest == programs[static_cast<std::size_t>(r.program)]
                                .expected[static_cast<std::size_t>(r.member)];
    if (r.ok && !ok) ++mismatches;
    out.ops.add(r.seconds, ok);
    if (!ok) continue;
    okReplies.emplace_back(r.endS, 1.0);
    okElems.emplace_back(r.endS, static_cast<double>(r.outputElems));
  }
  if (mismatches)
    out.problems.push_back(std::to_string(mismatches) +
                           " replies differ from direct EventDriven runs");
  if (out.ops.failed() > mismatches)
    out.problems.push_back(std::to_string(out.ops.failed() - mismatches) +
                           " requests did not complete Ok");

  ProgramCounts counts;
  std::vector<double> simRates;
  for (const Served& p : programs) {
    counts.add(p.built);
    simRates.push_back(p.steadyRate);
  }

  if (!args.trace) {
    Metrics& m = out.metrics;
    const std::vector<double> lat = out.ops.latenciesMs();
    m["setup_s"] = {median(setupS), "s"};
    m["peak_rss_mb"] = {rssMb > 0 ? rssMb : peakRssMb(), "MiB"};
    // Rates: the median over one-second windows of the measured phase.
    const std::vector<double> windows =
        windowTotals(okReplies, 1.0, measured);
    const std::vector<double> ones(windows.size(), 1.0);
    m["elems_per_s"] = {medianRate(windowTotals(okElems, 1.0, measured), ones),
                        "elements/s"};
    m["sim_rate"] = {geomean(simRates), "results/instr"};
    m["compile_ms_p50"] = {requirePercentile(compileMs, 50, "compile_ms"), "ms"};
    m["compile_ms_p90"] = {requirePercentile(compileMs, 90, "compile_ms"), "ms"};
    addCountMetrics(counts, false, m);
    m["req_per_s"] = {medianRate(windows, ones), "req/s"};
    m["latency_ms_p50"] = {requirePercentile(lat, 50, "latency_ms"), "ms"};
    m["latency_ms_p99"] = {requirePercentile(lat, 99, "latency_ms"), "ms"};
    return out;
  }

  Metrics& m = out.metrics;
  const std::vector<Span> spans = tr.spans();
  addCompileLayerMetrics(spans, m);
  addCountMetrics(counts, true, m);
  const auto totals = totalsByName(spans);
  auto meanUs = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : static_cast<double>(it->second.selfNs) / 1e3 /
                                    static_cast<double>(it->second.calls);
  };
  m["wire.encode_us"] = {meanUs("wire.encode"), "us"};
  m["wire.decode_us"] = {meanUs("wire.decode"), "us"};

  std::vector<double> serverMs, transportMs, firings;
  std::vector<std::vector<double>> traced(programs.size()),
      untraced(programs.size());
  for (const Record& r : recs) {
    if (!r.ok) continue;
    serverMs.push_back(r.serverMs);
    transportMs.push_back(r.seconds * 1e3 - r.serverMs);
    firings.push_back(static_cast<double>(r.firings));
    (r.traced ? traced : untraced)[static_cast<std::size_t>(r.program)]
        .push_back(r.seconds);
  }
  auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double requests = static_cast<double>(recs.size());
  const double runs = delta(after.runsExecuted, before.runsExecuted);
  const double batched = delta(after.batchedRuns, before.batchedRuns);
  const double lanes = delta(after.lanesExecuted, before.lanesExecuted);
  const double fallbacks = delta(after.batchFallbacks, before.batchFallbacks);
  const double hits = delta(cacheAfter.hits, cacheBefore.hits);
  const double misses = delta(cacheAfter.misses, cacheBefore.misses);
  // RequestStats::soloReruns does not cross the wire: every member of a
  // fallen-back batch reruns solo, estimated at the mean batched width.
  const double batchedWidth =
      batched > 0 ? (lanes - (runs - batched)) / batched : 0.0;
  m["serve.server_ms_p50"] = {requirePercentile(serverMs, 50, "server_ms"), "ms"};
  m["serve.server_ms_p99"] = {requirePercentile(serverMs, 99, "server_ms"), "ms"};
  m["serve.transport_ms_p50"] = {
      requirePercentile(transportMs, 50, "transport_ms"), "ms"};
  m["serve.lanes_per_run"] = {runs > 0 ? lanes / runs : 0.0, "lanes"};
  m["serve.batched_share"] = {runs > 0 ? batched / runs : 0.0, "ratio"};
  m["serve.fallback_share"] = {batched > 0 ? fallbacks / batched : 0.0, "ratio"};
  m["serve.solo_reruns_per_req"] = {fallbacks * batchedWidth / requests,
                                    "reruns"};
  m["serve.cache_hit_share"] = {
      hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
  m["serve.firings_per_req"] = {mean(firings), "firings"};
  m["serve.vm_mb_per_req"] = {(vmAfter - vmBefore) / requests, "MiB"};
  m["trace.overhead"] = {tracingOverhead(traced, untraced), "ratio"};
  m["trace.coverage"] = {coverage(spans, "bench.request"), "ratio"};
  return out;
}

}  // namespace perfbench

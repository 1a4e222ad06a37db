// SERVE — multi-tenant serving throughput on the F6 forall workload (ex1,
// m = 1024), measured as load tests: N concurrent one-shot requests with
// per-request random inputs.
//
// The server runs ex1 on the Compiled scheduler (its control is
// compile-time), so every configuration below measures fast-forwarded runs.
//
// Lane batching: lane-batched execution (serve::Server, laneWidth B)
// against serial per-session runs (laneWidth 1).  Every firing of the shared
// graph carries B tenants' operands as one typed lane pack, so the
// per-firing cost (the event loop's fill and drain, the replay's dispatch
// over the steady window) is paid once instead of B times, and only the
// lane loops of the ops scale with B.  Both configurations run ONE worker
// thread — the speedup measured there is batching, not parallelism, so it
// is meaningful on a 1-core container too.
//
// Worker scaling: laneWidth 1 at 1 / 2 / 4 executor threads.  A graph of
// tens of cells has under a microsecond of firing work per instruction
// time, less than one cross-core synchronization, so the unit of parallel
// work is a whole graph run: the worker pool runs independent sessions
// side by side.
//
// Timing: each load test is a bench::timeInterleaved variant whose setup
// starts a fresh server and warms its compile cache outside the timed span;
// serial and batched are timed together, and so are the three worker
// counts.  Ratios are medians of per-round time ratios (the same requests
// on both sides, so a time ratio is a requests/sec ratio).  A third,
// ungated table times the lane pack + unpack that the batched path pays per
// wave.
//
// Correctness gate: every response is bit-compared against a direct
// per-session EventDriven simulate() of the same inputs; any mismatch fails
// the bench.  Claim gates: batched requests/sec must be >= 2x serial (median
// ratio) with >= 4 lanes used, and 4 workers must reach a median >= 2.5x the
// requests/sec of 1 worker when the host has at least 4 hardware threads
// (otherwise the JSON records the scaling gate as skipped, with the
// reason).  Exits 1 when a gate fails.
#include "bench_common.hpp"

#include <algorithm>
#include <future>
#include <memory>
#include <thread>

#include "serve/lanes.hpp"
#include "serve/server.hpp"

namespace {

using namespace valpipe;

/// One request: its inputs and the outputs a direct run produces for them.
struct Request {
  run::StreamMap inputs;
  std::vector<Value> expected;
};

/// `n` requests with per-request random inputs, each paired with a direct
/// per-session EventDriven run — the bit-identity reference.
std::vector<Request> makeRequests(const core::CompiledProgram& prog, int n) {
  std::vector<Request> reqs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Request& r = reqs[static_cast<std::size_t>(i)];
    r.inputs = bench::randomInputs(prog, 1000u + 17u * unsigned(i));
    machine::RunOptions ro;
    ro.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();
    r.expected = machine::simulate(prog.graph, machine::MachineConfig::unit(),
                                   r.inputs, ro)
                     .outputs.at(prog.outputName);
  }
  return reqs;
}

struct LoadResult {
  double p50Micros = 0.0;
  double p99Micros = 0.0;
  std::uint64_t batchedRuns = 0;
  std::uint64_t lanesExecuted = 0;
  std::uint64_t runsExecuted = 0;
  int maxLanesSeen = 1;
  bool allOk = true;
  bool allIdentical = true;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// One load-test configuration as a timer variant.  Its setup checks and
/// shuts down the previous run's server, then starts a fresh one and warms
/// its compile-once cache, so every configuration measures serving, not one
/// compile; its run fires the first `n` requests as concurrent one-shots
/// and collects the responses.  `result` holds the last run's latencies
/// and server stats, and whether every run so far was ok and bit-identical
/// to the direct runs.
struct LoadTest {
  const std::string& source;
  const core::CompileOptions& copts;
  const std::string& output;
  const std::vector<Request>& reqs;
  int n = 0;
  int laneWidth = 1;
  int workers = 1;
  std::unique_ptr<serve::Server> server{};
  std::vector<serve::Response> responses{};
  LoadResult result{};

  bench::Variant variant() {
    return {[this] { fire(); },
            [this] {
              finish();
              start();
            }};
  }

  void start() {
    serve::ServerConfig cfg;
    cfg.laneWidth = laneWidth;
    cfg.workers = workers;
    cfg.maxSessions = n + 1;
    cfg.batchWindowMicros = laneWidth > 1 ? 500 : 0;
    server = std::make_unique<serve::Server>(cfg);
    server->submit(source, copts, reqs[0].inputs).get();
  }

  void fire() {
    std::vector<std::future<serve::Response>> futs;
    futs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      futs.push_back(server->submit(
          source, copts, reqs[static_cast<std::size_t>(i)].inputs));
    responses.reserve(static_cast<std::size_t>(n));
    for (auto& f : futs) responses.push_back(f.get());
  }

  /// Checks the last run against its direct runs and shuts its server down.
  void finish() {
    if (!server) return;
    std::vector<double> lat;
    result.maxLanesSeen = 1;
    for (int i = 0; i < n; ++i) {
      const serve::Response& resp = responses[static_cast<std::size_t>(i)];
      result.allOk = result.allOk && resp.ok();
      lat.push_back(static_cast<double>(resp.stats.latencyMicros));
      result.maxLanesSeen = std::max(result.maxLanesSeen, resp.stats.maxLanes);
      const auto it = resp.outputs.find(output);
      result.allIdentical =
          result.allIdentical && it != resp.outputs.end() &&
          it->second == reqs[static_cast<std::size_t>(i)].expected;
    }
    result.p50Micros = percentile(lat, 0.50);
    result.p99Micros = percentile(lat, 0.99);
    const serve::ServerStats st = server->stats();
    result.batchedRuns = st.batchedRuns;
    result.lanesExecuted = st.lanesExecuted;
    result.runsExecuted = st.runsExecuted;
    server->shutdown();
    server.reset();
    responses.clear();
  }
};

/// Requests/sec of each round's sample of variant `v`.
bench::Spread requestsPerSec(const bench::Timing& t, std::size_t v, int n) {
  std::vector<double> rps;
  for (double s : t.samples[v]) rps.push_back(n / s);
  return bench::spreadOf(std::move(rps));
}

}  // namespace

int main() {
  using namespace valpipe;
  constexpr std::int64_t kM = 1024;
  constexpr int kRequests = 32;
  constexpr int kLanes = 8;
  constexpr int kSweepRequests = 256;
  constexpr int kWorkerCounts[] = {1, 2, 4};
  constexpr double kScalingGate = 2.5;
  const unsigned cores = std::thread::hardware_concurrency();

  bench::banner(
      "SERVE (multi-tenant lane batching and worker scaling)",
      "lane-batched serving vs serial per-session runs, and 1/2/4 executor "
      "workers, F6 forall m=1024",
      ">= 2x requests/sec at lane width 8 on one worker thread; >= 2.5x "
      "requests/sec at 4 workers vs 1 given >= 4 hardware threads; every "
      "response bit-identical to a direct per-session EventDriven run");

  const std::string source = bench::example1Source(kM);
  core::CompileOptions copts;
  copts.lower = true;
  const core::CompiledProgram prog = core::compileSource(source, copts);
  const std::vector<Request> reqs = makeRequests(prog, kSweepRequests);
  const std::string& out = prog.outputName;

  LoadTest serial{source, copts, out, reqs, kRequests, /*laneWidth=*/1,
                  /*workers=*/1};
  LoadTest batched{source, copts, out, reqs, kRequests, kLanes,
                   /*workers=*/1};
  const bench::Timing tb =
      bench::timeInterleaved({serial.variant(), batched.variant()});
  serial.finish();
  batched.finish();
  const bench::Spread speedup = tb.ratio(0, 1);
  const bool batchPass = serial.result.allOk && batched.result.allOk &&
                         serial.result.allIdentical &&
                         batched.result.allIdentical &&
                         speedup.median >= 2.0 &&
                         batched.result.maxLanesSeen >= 4;

  std::vector<LoadTest> sweep;
  for (int workers : kWorkerCounts)
    sweep.push_back({source, copts, out, reqs, kSweepRequests,
                     /*laneWidth=*/1, workers});
  std::vector<bench::Variant> sweepVariants;
  for (LoadTest& lt : sweep) sweepVariants.push_back(lt.variant());
  const bench::Timing ts = bench::timeInterleaved(sweepVariants);
  bool sweepOk = true, sweepIdentical = true;
  for (LoadTest& lt : sweep) {
    lt.finish();
    sweepOk = sweepOk && lt.result.allOk;
    sweepIdentical = sweepIdentical && lt.result.allIdentical;
  }
  const bench::Spread scaling = ts.ratio(0, 2);
  const bool scalingChecked = cores >= 4;
  const bool scalingPass = !scalingChecked || scaling.median >= kScalingGate;

  // Lane pack + unpack: the fixed cost the batched path pays per wave
  // before and after the shared engine run (ungated).
  constexpr std::size_t kPackWidths[] = {2, 8};
  std::vector<std::vector<run::StreamMap>> tenants(std::size(kPackWidths));
  std::vector<std::vector<run::StreamMap>> unpacked(std::size(kPackWidths));
  std::vector<bench::Variant> packVariants;
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    tenants[k].resize(kPackWidths[k]);
    std::vector<const run::StreamMap*> ptrs;
    for (std::size_t l = 0; l < kPackWidths[k]; ++l) {
      tenants[k][l]["A"] = bench::randomStream(kM, 7u + unsigned(l));
      ptrs.push_back(&tenants[k][l]);
    }
    packVariants.push_back(
        {[ptrs, &dst = unpacked[k]] {
           dst = serve::unpackLanes(serve::packLanes(ptrs), ptrs.size());
         },
         [&dst = unpacked[k]] { dst.clear(); }});
  }
  const bench::Timing tp = bench::timeInterleaved(packVariants);
  bool packIdentical = true;
  for (std::size_t k = 0; k < tenants.size(); ++k)
    packIdentical = packIdentical && unpacked[k] == tenants[k];

  const bool pass = batchPass && sweepOk && sweepIdentical && scalingPass &&
                    packIdentical;

  TextTable table({"config", "req/s", "p50 us", "p99 us", "runs", "lanes",
                   "batched", "max lanes", "identical"});
  auto addRow = [&](const char* name, const LoadTest& lt, double seconds) {
    const LoadResult& r = lt.result;
    table.addRow({name, fmtDouble(lt.n / seconds, 5),
                  fmtDouble(r.p50Micros, 6), fmtDouble(r.p99Micros, 6),
                  std::to_string(r.runsExecuted),
                  std::to_string(r.lanesExecuted),
                  std::to_string(r.batchedRuns),
                  std::to_string(r.maxLanesSeen),
                  r.allIdentical ? "yes" : "NO"});
  };
  addRow("serial (B=1)", serial, tb.seconds(0));
  addRow("batched (B=8)", batched, tb.seconds(1));
  std::printf("%s\n", table.str().c_str());
  std::printf("batching speedup: %.2fx (%.2f-%.2f over %d rounds; gate: "
              ">= 2x with >= 4 lanes used) — %s\n\n",
              speedup.median, speedup.min, speedup.max, bench::kRounds,
              batchPass ? "PASS" : "FAIL");

  TextTable sweepTable({"workers", "median req/s", "min req/s", "max req/s",
                        "vs 1 worker"});
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const bench::Spread rps = requestsPerSec(ts, i, kSweepRequests);
    sweepTable.addRow({std::to_string(sweep[i].workers),
                       fmtDouble(rps.median, 5), fmtDouble(rps.min, 5),
                       fmtDouble(rps.max, 5),
                       fmtDouble(ts.ratio(0, i).median, 3)});
  }
  std::printf("worker sweep (B=1, %d requests per point, %d interleaved "
              "rounds; hardware threads %u):\n%s\n",
              kSweepRequests, bench::kRounds, cores,
              sweepTable.str().c_str());
  std::printf("every sweep response bit-identical: %s\n",
              sweepIdentical && sweepOk ? "yes" : "NO");
  if (scalingChecked)
    std::printf("worker scaling: %.2fx at 4 workers (%.2f-%.2f; gate: "
                ">= %.1fx) — %s\n\n",
                scaling.median, scaling.min, scaling.max, kScalingGate,
                scalingPass ? "PASS" : "FAIL");
  else
    std::printf("worker scaling: %.2fx at 4 workers — gate SKIPPED "
                "(hardware_concurrency %u < 4)\n\n",
                scaling.median, cores);

  TextTable packTable({"lanes", "m", "pack+unpack us", "round trip"});
  for (std::size_t k = 0; k < tenants.size(); ++k)
    packTable.addRow({std::to_string(kPackWidths[k]), std::to_string(kM),
                      fmtDouble(tp.seconds(k) * 1e6, 4),
                      unpacked[k] == tenants[k] ? "yes" : "NO"});
  std::printf("lane pack + unpack per wave (ungated):\n%s\n",
              packTable.str().c_str());

  bench::BenchJson json("serve", machine::SchedulerKind::Compiled,
                        /*threadsUsed=*/4);
  json.meta("workload", "F6 forall m=1024, concurrent one-shot requests");
  json.meta("lane_width", std::int64_t(kLanes));
  json.meta("speedup", speedup.median);
  json.meta("worker_sweep_requests", std::int64_t(kSweepRequests));
  json.meta("worker_scaling_4v1", scaling.median);
  if (scalingChecked) {
    json.meta("scaling_assertion", "checked");
  } else {
    json.meta("scaling_assertion", "skipped");
    json.meta("scaling_assertion_reason",
              "hardware_concurrency < 4: four workers cannot run in "
              "parallel, so the sweep measures contention, not scaling");
  }
  json.meta("pass", pass);
  auto jsonRow = [&](const char* name, const LoadTest& lt, std::size_t v) {
    const LoadResult& r = lt.result;
    bench::JsonObj row;
    row.add("config", name)
        .add("requests", kRequests)
        .add("workers", 1)
        .add("seconds", tb.seconds(v))
        .add("requests_per_sec", kRequests / tb.seconds(v))
        .add("p50_latency_us", r.p50Micros)
        .add("p99_latency_us", r.p99Micros)
        .add("runs_executed", r.runsExecuted)
        .add("lanes_executed", r.lanesExecuted)
        .add("batched_runs", r.batchedRuns)
        .add("max_lanes", r.maxLanesSeen)
        .add("all_ok", r.allOk)
        .add("identical_to_direct_run", r.allIdentical);
    if (v == 1) row.add("speedup_over_serial", speedup);
    json.addRow(row);
  };
  jsonRow("serial", serial, 0);
  jsonRow("batched", batched, 1);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const bench::Spread rps = requestsPerSec(ts, i, kSweepRequests);
    bench::JsonObj row;
    row.add("config", "worker_sweep")
        .add("requests", kSweepRequests)
        .add("workers", sweep[i].workers)
        .add("requests_per_sec_median", rps.median)
        .add("requests_per_sec_min", rps.min)
        .add("requests_per_sec_max", rps.max)
        .add("vs_one_worker", ts.ratio(0, i))
        .add("all_ok", sweep[i].result.allOk)
        .add("identical_to_direct_run", sweep[i].result.allIdentical);
    json.addRow(row);
  }
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    bench::JsonObj row;
    row.add("config", "pack_unpack")
        .add("lanes", static_cast<std::int64_t>(kPackWidths[k]))
        .add("m", kM)
        .add("micros", tp.seconds(k) * 1e6)
        .add("round_trip", unpacked[k] == tenants[k]);
    json.addRow(row);
  }
  json.write();

  if (!pass) {
    std::fprintf(stderr, "FAIL: serving gate not met\n");
    return 1;
  }
  return 0;
}

// SERVE — multi-tenant serving throughput on the F6 forall workload (ex1,
// m = 1024), measured as load tests: N concurrent one-shot requests with
// per-request random inputs.
//
// Lane batching: lane-batched execution (serve::Server, laneWidth B)
// against serial per-session runs (laneWidth 1).  Every firing of the shared
// graph carries B tenants' operands as one lane-pack Value, so the
// per-firing scheduling cost (ready queue, enabling test, acknowledge
// mechanics) is paid once instead of B times.  Both configurations run ONE
// worker thread — the speedup measured there is batching, not parallelism,
// so it is meaningful on a 1-core container too.
//
// Worker scaling: laneWidth 1 at 1 / 2 / 4 executor threads.  A graph of
// tens of cells has under a microsecond of firing work per instruction
// time, less than one cross-core synchronization, so the unit of parallel
// work is a whole graph run: the worker pool runs independent sessions
// side by side.  One warm-up sweep is discarded (the first sweep reads near
// 1x while threads and allocators warm), then the median of 5 sweeps in
// alternating worker order is taken.
//
// Correctness gate: every response is bit-compared against a direct
// per-session EventDriven simulate() of the same inputs; any mismatch fails
// the bench.  Claim gates: batched requests/sec must be >= 2x serial, and
// 4 workers must reach >= 2.5x the requests/sec of 1 worker when the host
// has at least 4 hardware threads (otherwise the JSON records the scaling
// gate as skipped, with the reason).
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <thread>

#include "serve/lanes.hpp"
#include "serve/server.hpp"

namespace {

using namespace valpipe;

std::string forallSource(std::int64_t m) {
  return "const m = " + std::to_string(m) + "\n" + R"(
function ex1(B, C: array[real] [0, m+1] returns array[real])
  forall i in [0, m+1]
    P : real := if (i = 0) | (i = m+1) then C[i]
                else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
  construct B[i] * (P * P)
  endall
endfun
)";
}

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
  double seconds = 0.0;
  double requestsPerSec = 0.0;
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

/// Fires the first `n` of `reqs` as concurrent one-shot requests at a fresh
/// server and checks every response bit-for-bit against its direct run.
LoadResult loadTest(const std::string& source, const std::string& output,
                    const std::vector<Request>& reqs, int n, int laneWidth,
                    int workers) {
  serve::ServerConfig cfg;
  cfg.laneWidth = laneWidth;
  cfg.workers = workers;
  cfg.maxSessions = n + 1;
  cfg.batchWindowMicros = laneWidth > 1 ? 500 : 0;
  serve::Server server(cfg);

  core::CompileOptions copts;
  copts.lower = true;

  // Warm the compile-once cache so every configuration measures serving,
  // not one compile.
  server.submit(source, copts, reqs[0].inputs).get();

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<serve::Response>> futs;
  futs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    futs.push_back(
        server.submit(source, copts, reqs[static_cast<std::size_t>(i)].inputs));
  std::vector<serve::Response> responses;
  responses.reserve(static_cast<std::size_t>(n));
  for (auto& f : futs) responses.push_back(f.get());
  const auto t1 = std::chrono::steady_clock::now();

  LoadResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.requestsPerSec = n / r.seconds;
  std::vector<double> lat;
  for (const serve::Response& resp : responses) {
    r.allOk = r.allOk && resp.ok();
    lat.push_back(static_cast<double>(resp.stats.latencyMicros));
    r.maxLanesSeen = std::max(r.maxLanesSeen, resp.stats.maxLanes);
  }
  r.p50Micros = percentile(lat, 0.50);
  r.p99Micros = percentile(lat, 0.99);
  const serve::ServerStats st = server.stats();
  r.batchedRuns = st.batchedRuns;
  r.lanesExecuted = st.lanesExecuted;
  r.runsExecuted = st.runsExecuted;

  // Bit-identity gate: served outputs == a direct per-session run.
  for (int i = 0; i < n; ++i) {
    const auto& got = responses[static_cast<std::size_t>(i)].outputs;
    const auto it = got.find(output);
    if (it == got.end() ||
        it->second != reqs[static_cast<std::size_t>(i)].expected) {
      r.allIdentical = false;
      break;
    }
  }
  server.shutdown();
  return r;
}

/// Lane pack/unpack overhead — the fixed cost the batched path pays per
/// wave before and after the shared engine run.
void BM_PackUnpack(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  std::vector<run::StreamMap> tenants(lanes);
  for (std::size_t l = 0; l < lanes; ++l)
    tenants[l]["A"] = bench::randomStream(1024, 7u + unsigned(l));
  std::vector<const run::StreamMap*> ptrs;
  for (const auto& t : tenants) ptrs.push_back(&t);
  for (auto _ : state) {
    run::StreamMap packed = serve::packLanes(ptrs);
    auto unpacked = serve::unpackLanes(packed, lanes);
    benchmark::DoNotOptimize(unpacked);
  }
}
BENCHMARK(BM_PackUnpack)->Arg(2)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  using namespace valpipe;
  constexpr std::int64_t kM = 1024;
  constexpr int kRequests = 32;
  constexpr int kLanes = 8;
  constexpr int kSweepRequests = 256;
  constexpr int kSweepReps = 5;
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

  const std::string source = forallSource(kM);
  core::CompileOptions copts;
  copts.lower = true;
  const core::CompiledProgram prog = core::compileSource(source, copts);
  const std::vector<Request> reqs = makeRequests(prog, kSweepRequests);
  const std::string& out = prog.outputName;

  const LoadResult serial =
      loadTest(source, out, reqs, kRequests, /*laneWidth=*/1, /*workers=*/1);
  const LoadResult batched =
      loadTest(source, out, reqs, kRequests, kLanes, /*workers=*/1);
  const double speedup = batched.requestsPerSec / serial.requestsPerSec;
  const bool batchPass = serial.allOk && batched.allOk &&
                         serial.allIdentical && batched.allIdentical &&
                         speedup >= 2.0 && batched.maxLanesSeen >= 4;

  // Worker sweep: rep -1 is the discarded warm-up; odd reps run the worker
  // counts in reverse so slow drift does not favour either end.
  std::map<int, std::vector<double>> sweepRps;
  bool sweepOk = true, sweepIdentical = true;
  for (int rep = -1; rep < kSweepReps; ++rep) {
    std::vector<int> order(std::begin(kWorkerCounts), std::end(kWorkerCounts));
    if (rep % 2 != 0) std::reverse(order.begin(), order.end());
    for (int workers : order) {
      const LoadResult r = loadTest(source, out, reqs, kSweepRequests,
                                    /*laneWidth=*/1, workers);
      sweepOk = sweepOk && r.allOk;
      sweepIdentical = sweepIdentical && r.allIdentical;
      if (rep >= 0) sweepRps[workers].push_back(r.requestsPerSec);
    }
  }
  const double base = percentile(sweepRps[1], 0.5);
  const double scaling = percentile(sweepRps[4], 0.5) / base;
  const bool scalingChecked = cores >= 4;
  const bool scalingPass = !scalingChecked || scaling >= kScalingGate;
  const bool pass = batchPass && sweepOk && sweepIdentical && scalingPass;

  TextTable table({"config", "req/s", "p50 us", "p99 us", "runs", "lanes",
                   "batched", "max lanes", "identical"});
  auto addRow = [&](const char* name, const LoadResult& r) {
    table.addRow({name, fmtDouble(r.requestsPerSec, 5),
                  fmtDouble(r.p50Micros, 6), fmtDouble(r.p99Micros, 6),
                  std::to_string(r.runsExecuted),
                  std::to_string(r.lanesExecuted),
                  std::to_string(r.batchedRuns),
                  std::to_string(r.maxLanesSeen),
                  r.allIdentical ? "yes" : "NO"});
  };
  addRow("serial (B=1)", serial);
  addRow("batched (B=8)", batched);
  std::printf("%s\n", table.str().c_str());
  std::printf("batching speedup: %.2fx (gate: >= 2x with >= 4 lanes used) — "
              "%s\n\n",
              speedup, batchPass ? "PASS" : "FAIL");

  TextTable sweep({"workers", "median req/s", "min req/s", "max req/s",
                   "vs 1 worker"});
  for (int workers : kWorkerCounts) {
    const std::vector<double>& v = sweepRps[workers];
    const double med = percentile(v, 0.5);
    sweep.addRow({std::to_string(workers), fmtDouble(med, 5),
                  fmtDouble(*std::min_element(v.begin(), v.end()), 5),
                  fmtDouble(*std::max_element(v.begin(), v.end()), 5),
                  fmtDouble(med / base, 3)});
  }
  std::printf("worker sweep (B=1, %d requests per point, median of %d "
              "alternating-order reps after one warm-up; hardware "
              "threads %u):\n%s\n",
              kSweepRequests, kSweepReps, cores, sweep.str().c_str());
  std::printf("every sweep response bit-identical: %s\n",
              sweepIdentical && sweepOk ? "yes" : "NO");
  if (scalingChecked)
    std::printf("worker scaling: %.2fx at 4 workers (gate: >= %.1fx) — %s\n\n",
                scaling, kScalingGate, scalingPass ? "PASS" : "FAIL");
  else
    std::printf("worker scaling: %.2fx at 4 workers — gate SKIPPED "
                "(hardware_concurrency %u < 4)\n\n",
                scaling, cores);

  bench::BenchJson json("serve", machine::SchedulerKind::EventDriven,
                        /*threadsUsed=*/4);
  json.meta("workload", "F6 forall m=1024, concurrent one-shot requests");
  json.meta("lane_width", std::int64_t(kLanes));
  json.meta("speedup", speedup);
  json.meta("worker_sweep_requests", std::int64_t(kSweepRequests));
  json.meta("worker_sweep_reps", std::int64_t(kSweepReps));
  json.meta("worker_scaling_4v1", scaling);
  if (scalingChecked) {
    json.meta("scaling_assertion", "checked");
  } else {
    json.meta("scaling_assertion", "skipped");
    json.meta("scaling_assertion_reason",
              "hardware_concurrency < 4: four workers cannot run in "
              "parallel, so the sweep measures contention, not scaling");
  }
  json.meta("pass", pass);
  auto jsonRow = [&](const char* name, const LoadResult& r) {
    bench::JsonObj row;
    row.add("config", name)
        .add("requests", kRequests)
        .add("workers", 1)
        .add("seconds", r.seconds)
        .add("requests_per_sec", r.requestsPerSec)
        .add("p50_latency_us", r.p50Micros)
        .add("p99_latency_us", r.p99Micros)
        .add("runs_executed", r.runsExecuted)
        .add("lanes_executed", r.lanesExecuted)
        .add("batched_runs", r.batchedRuns)
        .add("max_lanes", r.maxLanesSeen)
        .add("all_ok", r.allOk)
        .add("identical_to_direct_run", r.allIdentical);
    json.addRow(row);
  };
  jsonRow("serial", serial);
  jsonRow("batched", batched);
  for (int workers : kWorkerCounts) {
    const std::vector<double>& v = sweepRps[workers];
    bench::JsonObj row;
    row.add("config", "worker_sweep")
        .add("requests", kSweepRequests)
        .add("workers", workers)
        .add("requests_per_sec_median", percentile(v, 0.5))
        .add("requests_per_sec_min", *std::min_element(v.begin(), v.end()))
        .add("requests_per_sec_max", *std::max_element(v.begin(), v.end()))
        .add("vs_one_worker", percentile(v, 0.5) / base)
        .add("all_ok", sweepOk)
        .add("identical_to_direct_run", sweepIdentical);
    json.addRow(row);
  }
  json.write();

  if (!pass) {
    std::fprintf(stderr, "FAIL: serving gate not met\n");
    return 1;
  }
  return bench::runTimings(argc, argv);
}

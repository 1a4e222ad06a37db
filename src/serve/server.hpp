// valpipe-serve: the multi-tenant serving core.
//
// A Server keeps compiled programs resident (serve/program_cache.hpp) and
// streams many tenants' data through them concurrently:
//
//   * Admission control — at most `maxSessions` sessions are open at once
//     and at most `maxQueuedRuns` wave-runs wait for an executor; a request
//     over either bound is REJECTED with a structured Response rather than
//     queued without bound.  Per-session flow is additionally windowed
//     (`sessionWindowWaves`), which turns a slow consumer into producer-side
//     backpressure instead of unbounded buffering.
//
//   * Chunked streaming I/O — a Session moves data one *wave* (one array
//     instance) at a time: push() blocks once the session's in-flight window
//     (`sessionWindowWaves`) is full, and the window only reopens when the
//     consumer pull()s completed output waves.  Producer-side backpressure
//     therefore propagates from a slow consumer through the engine queue to
//     the data source, and no session buffers more than a bounded number of
//     waves regardless of how long its stream is.  A one-shot submit()
//     already holds its whole input: it deposits every wave at once, the
//     same window bounds its in-flight runs, and each finished wave refills
//     it.  The only threads a Server runs are its `workers` executors;
//     nothing is started per request.
//
//   * The scheduler is the server's choice, read off each cached program's
//     sched::SteadySchedule: a program whose control is compile-time runs
//     on the Compiled scheduler, which fast-forwards the §3 steady state;
//     any other runs on EventDriven.  Both are bit-identical, so no session
//     option or wire byte chooses.
//
//   * Lane-batched execution — wave-runs of different sessions over the SAME
//     cached program are fused, up to `laneWidth` at a time, into one engine
//     run over typed lane packs (serve/lanes.hpp): one firing carries B
//     tenants' operands, amortizing the per-firing scheduling cost B ways.
//     Lane l's outputs are bit-identical to that tenant's solo EventDriven
//     run.  A program whose schedule declines with DataDependentControl is
//     never batched: its gates follow each tenant's data, so its lanes
//     would diverge.  Any fault of one tenant's data (a zero divisor, a
//     lane of another kind) makes the batch fall back: every member is
//     rerun solo, so one tenant's poison never corrupts or fails another's
//     request.
//
//   * Per-request error reporting — a compile error, admission rejection,
//     malformed request, engine stall (run::StallError with its per-cell
//     diagnosis), guard violation (src/guard/), or injected-fault fallout
//     (src/fault/) lands in THAT request's Response as a structured
//     (Status, error) pair plus RequestStats; other in-flight sessions are
//     untouched.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/options.hpp"
#include "fault/plan.hpp"
#include "machine/config.hpp"
#include "recover/supervisor.hpp"
#include "run/io.hpp"
#include "serve/program_cache.hpp"

namespace valpipe::machine {
struct MachineResult;
}

namespace valpipe::serve {

/// Structured per-request outcome.
enum class Status {
  Ok,
  Rejected,        ///< admission control: session/queue bound hit
  BadRequest,      ///< malformed request (unknown stream, wrong length, ...)
  CompileError,    ///< program failed to compile (frontend or mapping)
  Stalled,         ///< run::StallError: watchdog/cap with diagnosis
  GuardViolation,  ///< guard::ViolationError: invariant named in `error`
  RunError,        ///< any other engine failure (divergence, value error)
  Cancelled,       ///< session cancelled (client gone, server shutdown)
  Overloaded,      ///< shed under overload or rate limit; Response carries a
                   ///< retryAfterMillis hint — retrying later should succeed
};
const char* toString(Status s);

/// Per-session run knobs (the per-session run::RunOptions surface).
struct SessionOptions {
  int waves = 1;  ///< total wave-chunks this session will stream
  std::int64_t watchdog = 0;  ///< idle-window stall abort (per wave-run)
  std::int64_t maxInstructionTimes = 50'000'000;  ///< runaway cap per wave-run
  bool guards = false;        ///< runtime invariant guards (src/guard/)
  bool wantMetrics = false;   ///< collect per-session obs metrics JSON
  bool hasFaults = false;     ///< `faults` below is live (test/chaos hook)
  fault::Plan faults;         ///< per-session deterministic fault plan
  run::StreamMap amInitial;   ///< pre-loaded array-memory regions
  std::string tenant;         ///< rate-limit bucket key ("" = anonymous)
  int priority = 0;           ///< overload shedding order (lower sheds first)
  int maxAttempts = 1;        ///< supervised per-wave retries (1 = off)
  std::int64_t checkpointEvery = 0;  ///< within-wave snapshot cadence for
                                     ///< retries (0 = restart the wave)
};

/// What one request cost and how it ran.
struct RequestStats {
  std::int64_t cycles = 0;        ///< engine instruction times, summed
  std::uint64_t firings = 0;      ///< cell firings, summed over waves
  std::uint64_t firingsSkipped = 0;  ///< of those, fast-forwarded by the
                                     ///< Compiled scheduler
  int maxLanes = 1;               ///< widest batch this session rode in
  int soloReruns = 0;             ///< wave-runs rerun solo after a batch fell back
  bool cacheHit = false;          ///< program came from the compile-once cache
  std::int64_t latencyMicros = 0; ///< open/submit -> completion
  fault::Counters faults;         ///< what the injector did (all zero without)
  int attempts = 1;               ///< max supervised attempts any wave needed
  int recoveredWaves = 0;         ///< waves that completed only after a retry
};

struct Response {
  Status status = Status::Ok;
  std::string error;        ///< diagnosis when status != Ok
  run::StreamMap outputs;   ///< whole-run outputs (one-shot submit() only)
  RequestStats stats;
  std::string metricsJson;  ///< per-session metrics (wantMetrics, last wave)
  std::int64_t retryAfterMillis = 0;  ///< Overloaded: when to try again
  bool ok() const { return status == Status::Ok; }
};

struct ServerStats {
  std::uint64_t sessionsOpened = 0;
  std::uint64_t sessionsRejected = 0;
  std::uint64_t requestsCompleted = 0;
  std::uint64_t requestsFailed = 0;
  std::uint64_t runsExecuted = 0;   ///< engine runs (batched counts once)
  std::uint64_t batchedRuns = 0;    ///< runs with >= 2 lanes
  std::uint64_t lanesExecuted = 0;  ///< wave-runs served (batch members each)
  std::uint64_t batchFallbacks = 0; ///< batches rerun solo (divergence/fault)
  std::uint64_t fastForwardedRuns = 0;  ///< engine runs, solo reruns
                                        ///< included, that skipped >= 1
                                        ///< steady window on Compiled
  std::uint64_t declinedRuns = 0;   ///< runs (as runsExecuted counts them) of
                                    ///< programs whose schedule declined, so
                                    ///< they ran on EventDriven
  std::uint64_t runsShed = 0;       ///< queued runs shed under overload
  std::uint64_t rateLimited = 0;    ///< opens refused by a tenant bucket
  std::uint64_t wavesRecovered = 0; ///< wave-runs that needed a retry
};

struct ServerConfig {
  int laneWidth = 4;    ///< max sessions fused per engine run (1 = off)
  int workers = 1;      ///< executor threads
  int maxSessions = 64; ///< admission: concurrently open sessions
  int maxQueuedRuns = 1024;  ///< admission: wave-runs waiting for an executor
  std::size_t sessionWindowWaves = 4;  ///< per-session in-flight+unpulled bound
  /// How long an idle executor waits for the run queue to fill before
  /// settling for a narrower batch (0 = take what is there).
  int batchWindowMicros = 0;
  machine::MachineConfig machine = machine::MachineConfig::unit();

  /// Resident compiled programs (LRU eviction past the bound; 0 = unbounded).
  std::size_t maxCachedPrograms = 0;

  /// Per-tenant token bucket: opening a session costs `waves` tokens; a
  /// tenant over its rate gets Status::Overloaded with a Retry-After hint
  /// instead of queue space (0 = rate limiting off).
  double rateWavesPerSecond = 0;
  double rateBurstWaves = 32;  ///< bucket depth (burst allowance)

  /// Retry-After hint attached to Overloaded rejections from queue shedding.
  std::int64_t overloadRetryAfterMillis = 50;

  /// Base retry ladder for supervised wave-runs (sessions opt in via
  /// SessionOptions::maxAttempts > 1, which overrides `retry.maxAttempts`;
  /// a per-session checkpointEvery overrides `retry.checkpointEvery`).
  recover::RetryPolicy retry;

  /// Server-side chaos hook (tests, CI smoke): inject this fault plan into
  /// every session that brings no plan of its own, with guards on so
  /// destructive classes surface, and supervise each wave-run with at least
  /// `retry.maxAttempts` attempts.
  bool chaosEnabled = false;
  fault::Plan chaos;
};

class Server;

/// One tenant's open stream through a resident graph.  Producer side:
/// push() one wave of each input stream, then closeInputs().  Consumer
/// side: pull() completed output waves in order, then finish() for the
/// structured outcome.  Obtained from Server::open(); thread-safe (one
/// producer and one consumer may run concurrently).
class Session {
 public:
  /// Opaque shared state (defined in server.cpp).
  struct State;

  /// Feeds one wave of input `stream` (exactly the program's per-wave
  /// length).  Blocks under backpressure.  Returns false once the session
  /// has failed or was cancelled (finish() has the diagnosis).
  bool push(const std::string& stream, std::vector<Value> wave);

  /// Declares the input stream finished.  Implied once `waves` waves of
  /// every input were pushed; pushing after close fails the session.
  void closeInputs();

  /// Next completed output wave, in wave order.  Blocks until one is ready;
  /// nullopt when all waves were pulled or the session failed.
  std::optional<std::vector<Value>> pull();

  /// Fails the session (Status::Cancelled) if it has not completed yet;
  /// queued work is skipped, in-flight work is discarded on completion.
  void cancel();

  /// Waits for completion and returns the structured outcome.
  Response finish();

 private:
  friend class Server;
  explicit Session(std::shared_ptr<State> st) : st_(std::move(st)) {}
  std::shared_ptr<State> st_;
};

class Server {
 public:
  explicit Server(ServerConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens a streaming session for `source` compiled under `copts`
  /// (compile-once cached).  On rejection or compile failure returns null
  /// and, when `why` is given, fills it with the structured Response.
  std::shared_ptr<Session> open(const std::string& source,
                                const core::CompileOptions& copts,
                                const SessionOptions& sopts = {},
                                Response* why = nullptr);

  /// One-shot request: whole inputs in (length = waves x per-wave length),
  /// whole outputs back in the Response.  Never blocks: every wave is
  /// deposited at once and dispatched as the session window allows.  The
  /// future is fulfilled on completion, rejection, or failure — never
  /// abandoned.
  std::future<Response> submit(const std::string& source,
                               const core::CompileOptions& copts,
                               run::StreamMap inputs,
                               const SessionOptions& sopts = {});

  /// Stops admission, cancels unfinished sessions, drains and joins.
  void shutdown();

  CacheStats cacheStats() const { return cache_.stats(); }
  ServerStats stats() const;
  const ServerConfig& config() const { return cfg_; }

 private:
  friend class Session;
  friend struct Session::State;
  struct RunUnit;

  /// Admission, cached compile and roster registration shared by open()
  /// and submit(); null (with `why` filled) on rejection.
  std::shared_ptr<Session::State> openSession(const std::string& source,
                                              const core::CompileOptions& copts,
                                              const SessionOptions& sopts,
                                              Response* why);
  void workerLoop();
  /// The unit may share an engine run with other sessions' units.
  bool mayBatch(const RunUnit& unit) const;
  void execute(std::vector<RunUnit> batch);
  void runSolo(RunUnit& unit);
  void deliver(RunUnit& unit, std::vector<Value> outWave,
               const machine::MachineResult& res, int lanes);
  void countRun(const machine::MachineResult& res);  ///< fastForwardedRuns
  void fail(RunUnit& unit, Status st, const std::string& why,
            std::int64_t retryAfterMillis = 0);
  bool enqueue(RunUnit unit);
  void dispatchReady(const std::shared_ptr<Session::State>& st);
  void onSessionDone(bool ok);
  bool stoppingNow();
  /// Token-bucket admission for `tenant`; on refusal fills the hint with
  /// when enough tokens will have refilled.
  bool admitTenant(const std::string& tenant, double cost,
                   std::int64_t* retryAfterMillis);

  ServerConfig cfg_;
  mutable ProgramCache cache_;

  std::mutex qmu_;
  std::condition_variable qcv_;
  std::deque<RunUnit> queue_;
  bool stopping_ = false;
  bool accepting_ = true;

  std::atomic<int> openSessions_{0};

  mutable std::mutex smu_;  ///< guards stats_ and sessions_
  ServerStats stats_;
  std::vector<std::weak_ptr<Session::State>> sessions_;

  struct TokenBucket {
    double tokens = 0;
    std::chrono::steady_clock::time_point last{};
  };
  std::mutex rmu_;  ///< guards buckets_
  std::map<std::string, TokenBucket> buckets_;

  std::vector<std::thread> workers_;  ///< the only threads a Server owns
};

}  // namespace valpipe::serve

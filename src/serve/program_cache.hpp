// Compile-once program cache of the serving layer.
//
// A long-lived server sees the same Val programs over and over — the whole
// premise of the paper is that one balanced graph, kept resident, sustains
// maximum-rate pipelining over a stream of array instances.  The cache maps
// (source hash, canonical CompileOptions key) to one immutable CachedProgram
// holding every per-program artifact the run path needs:
//
//   - the CompiledProgram (built through the named phases of
//     core/phases.hpp with lowering forced on, so the graph is machine-ready);
//   - the flattened exec::ExecutableGraph, built ONCE and shared read-only
//     by every concurrent run (machine::simulate's prebuilt-graph overload);
//   - its sched::SteadySchedule, computed once: the server runs an accepted
//     program on the Compiled scheduler and never lane-batches one whose
//     control is data-dependent;
//   - the output stream name and per-wave packet count the stop condition
//     needs.
//
// Concurrency contract: any number of threads may call get() for the same
// key; exactly one of them compiles (the others block on a shared_future of
// the same entry), and a hit returns the *same* shared_ptr — bit-identical
// ExecutableGraph by construction.  A compile error propagates to every
// concurrent waiter and the entry is then dropped, so the (deterministic)
// error is re-raised per request rather than wedging the key.
//
// Residency is bounded: with a nonzero capacity, inserting past it evicts
// the least-recently-used *ready* entry (an in-flight compile is never
// evicted — its waiters hold the future).  Eviction only drops the cache's
// reference; sessions still running the program keep it alive through their
// own shared_ptr, so eviction can never invalidate an in-flight run.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/compiler.hpp"
#include "core/options.hpp"
#include "dfg/graph.hpp"
#include "exec/executable_graph.hpp"
#include "sched/schedule.hpp"

namespace valpipe::serve {

/// FNV-1a 64-bit — the source half of the cache key.
inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// One resident compiled program, immutable after construction.
struct CachedProgram {
  std::string source;            ///< full source (collision guard)
  core::CompileOptions options;  ///< normalized: lower forced on
  core::CompiledProgram program; ///< graph is machine-ready (lowered)
  exec::ExecutableGraph exec;    ///< flattened once, shared by all runs
  sched::SteadySchedule schedule;  ///< of `exec`, computed once

  CachedProgram(std::string src, const core::CompileOptions& opts,
                core::CompiledProgram prog)
      : source(std::move(src)),
        options(opts),
        program(std::move(prog)),
        exec(program.graph),
        schedule(sched::computeSteadySchedule(exec)) {}

  const std::string& outputName() const { return program.outputName; }
  std::int64_t outputPerWave() const { return program.expectedOutputPerWave(); }
};

struct CacheStats {
  std::uint64_t hits = 0;      ///< get() found a (ready or in-flight) entry
  std::uint64_t misses = 0;    ///< get() had to create the entry
  std::uint64_t compiles = 0;  ///< compilations actually run (== misses that
                               ///< reached the compiler; the exactly-once bound)
  std::uint64_t evictions = 0; ///< LRU entries dropped (capacity > 0 only)
};

class ProgramCache {
 public:
  /// `capacity` bounds resident entries (0 = unbounded).
  explicit ProgramCache(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Rebounds the cache; 0 removes the bound.  Shrinking evicts immediately.
  void setCapacity(std::size_t capacity);

  /// Returns the resident program for (source, opts), compiling at most once
  /// per key across all threads.  Throws CompileError (to every concurrent
  /// waiter of the same key) when the program does not compile.  When `hit`
  /// is given it reports whether this call found an existing entry.
  std::shared_ptr<const CachedProgram> get(const std::string& source,
                                           const core::CompileOptions& opts,
                                           bool* hit = nullptr);

  CacheStats stats() const;
  std::size_t size() const;
  std::size_t capacity() const;

 private:
  using Future = std::shared_future<std::shared_ptr<const CachedProgram>>;
  struct Entry {
    Future future;
    std::string source;     ///< for hash-collision detection
    std::uint64_t lastUse = 0;  ///< LRU clock stamp of the latest get()
    bool ready = false;     ///< compile finished (evictable)
  };

  void evictOverflowLocked();  ///< drop LRU ready entries past capacity_

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  CacheStats stats_;
  std::size_t capacity_ = 0;
  std::uint64_t clock_ = 0;
};

}  // namespace valpipe::serve

// Deterministic fault-injection plans for the timed machine engines.
//
// A fault::Plan describes a seeded perturbation of a run, split into two
// classes with very different contracts:
//
//   * timing faults — extra result-transit latency per firing (jitter),
//     extra per-packet delivery delay, and transient FU outage windows.
//     These change *when* packets move, never *which* packets move: the §2
//     acknowledge discipline makes firing counts data-determined, so outputs
//     and packet counters stay bit-identical to the fault-free run (the
//     paper's determinacy claim; tests/test_fault_injection.cpp proves it).
//
//   * destructive faults — dropped or duplicated result and acknowledge
//     packets (per-mille rates).  These break the discipline on purpose; a
//     run under them must end in recovery, a guard::ViolationError, or a
//     run::StallError — never a hang or a silently wrong output.
//
// Plans are plain data hung off run::RunOptions by pointer (null = off, the
// same zero-cost contract as the obs sinks); the hot-path decision maker is
// fault::Injector (fault/injector.hpp).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dfg/opcode.hpp"

namespace valpipe::fault {

/// readyAt/freedAt stamp of a packet lost in the network: far enough in the
/// future that no run reaches it, so the waiting side blocks forever and the
/// watchdog (or a guard) gets to report it by name.
inline constexpr std::int64_t kLostPacket =
    std::numeric_limits<std::int64_t>::max() / 4;

/// One transient function-unit outage: every grant of class `fu` is denied
/// for instruction times in [from, from + length).
struct Outage {
  dfg::FuClass fu = dfg::FuClass::Fpu;
  std::int64_t from = 0;
  std::int64_t length = 0;

  std::int64_t until() const { return from + length; }
};

struct Plan {
  std::uint64_t seed = 1;  ///< seed of the injector's decision stream

  // --- timing class (outputs/counters stay bit-identical) ---
  int latencyJitterMax = 0;   ///< extra result-transit per firing, [0, max]
  int deliveryDelayMax = 0;   ///< extra delay per result packet, [0, max]
  std::vector<Outage> outages;

  // --- destructive class (per-mille probabilities) ---
  int dropResultPermille = 0;
  int dupResultPermille = 0;
  int dropAckPermille = 0;
  int dupAckPermille = 0;

  /// No destructive faults: the bit-identical-outputs contract applies.
  bool timingOnly() const {
    return dropResultPermille == 0 && dupResultPermille == 0 &&
           dropAckPermille == 0 && dupAckPermille == 0;
  }

  /// The same plan with every destructive class zeroed (timing faults kept).
  /// The recovery supervisor's degradation ladder: a retry from a clean
  /// snapshot under the stripped plan is timing-faulted at worst, so its
  /// outputs and packet counters are bit-identical to the fault-free run.
  Plan withoutDestructive() const {
    Plan p = *this;
    p.dropResultPermille = 0;
    p.dupResultPermille = 0;
    p.dropAckPermille = 0;
    p.dupAckPermille = 0;
    return p;
  }

  /// Upper bound on the extra delay any single packet can accrue; engines
  /// widen their quiescence window and wake horizon by this much so delayed
  /// packets are neither declared deadlock nor aliased in the time wheel.
  std::int64_t maxExtraDelay() const {
    return static_cast<std::int64_t>(latencyJitterMax) + deliveryDelayMax;
  }

  /// End of the outage window covering `now` for class `fc` (<= now when
  /// none).  Static data, no randomness: every scheduler sees the same
  /// answer.
  std::int64_t outageUntil(dfg::FuClass fc, std::int64_t now) const {
    std::int64_t until = now;
    for (const Outage& o : outages)
      if (o.fu == fc && o.from <= now && now < o.until())
        until = std::max(until, o.until());
    return until;
  }

  /// Latest outage end: quiescence must not be declared while a class is
  /// still switched off (cells waiting it out are not deadlocked).
  std::int64_t lastOutageEnd() const {
    std::int64_t end = 0;
    for (const Outage& o : outages) end = std::max(end, o.until());
    return end;
  }
};

/// What the injector actually did, merged into MachineResult::faults so
/// tests and valc can report it (and the stall diagnosis can attribute a
/// starving cell to a dropped packet rather than an unbalanced graph).
struct Counters {
  std::uint64_t delayedResults = 0;  ///< result packets given extra transit
  std::uint64_t outageDenials = 0;   ///< grant denials inside outage windows
  std::uint64_t droppedResults = 0;
  std::uint64_t duplicatedResults = 0;
  std::uint64_t droppedAcks = 0;
  std::uint64_t duplicatedAcks = 0;

  void add(const Counters& o) {
    delayedResults += o.delayedResults;
    outageDenials += o.outageDenials;
    droppedResults += o.droppedResults;
    duplicatedResults += o.duplicatedResults;
    droppedAcks += o.droppedAcks;
    duplicatedAcks += o.duplicatedAcks;
  }

  std::uint64_t destructive() const {
    return droppedResults + duplicatedResults + droppedAcks + duplicatedAcks;
  }

  /// One-line human summary ("dropped 2 results, lost 1 ack, ..."); empty
  /// when nothing was injected.
  std::string str() const;
};

/// Parses a valc `--faults` spec: comma-separated `key=value` entries.
///   seed=N jitter=N delay=N outage=CLASS@FROM+LEN
///   drop-result=PM dup-result=PM drop-ack=PM dup-ack=PM
/// CLASS is one of pe|alu|fpu|am; PM is a per-mille rate.  Throws
/// CompileError naming the offending entry.
Plan parsePlan(const std::string& spec);

/// Compact round-trippable description of a plan for logs and banners.
std::string describe(const Plan& plan);

}  // namespace valpipe::fault

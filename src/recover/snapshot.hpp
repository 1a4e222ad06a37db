// Checkpoint/restore state model of the recovery subsystem.
//
// The paper's §2 determinacy argument makes recovery cheap: a static
// dataflow run is a pure function of its input streams, so an engine whose
// complete dynamic state was saved at an instruction-time boundary can be
// reconstructed and re-run to the *bit-identical* continuation — outputs,
// arrival times, firing counts, packet counters.  recover::Snapshot is that
// complete dynamic state, flattened the way the engines already flatten it
// (exec::Slot / exec::CellDyn / exec::FifoState parallel arrays over the
// ExecutableGraph's slot numbering); every scheduler — EventDriven,
// Compiled, and the Reference oracle — captures into and restores from this
// one format, so a snapshot taken under one scheduler resumes under any
// other.
//
// What is deliberately NOT captured: the time wheel.  Wake entries are
// derivable from the materialized state (a full slot's readyAt wakes its
// consumer, a freed slot's freedAt wakes its producer, a composite FIFO's
// ring stamps give its maturation times), and the engines' enabling test is
// stable under *extra* examinations — the Reference stepper rescans every
// cell every instruction time and is bit-identical to EventDriven.
// Restore therefore reseeds a conservative wake set from state alone
// (machine/engine_snapshot.hpp) instead of serializing scheduler internals.
// The Compiled scheduler rebuilds its wheel after a jump with the same
// routine, so a snapshot captured after a jump is an ordinary one and
// resumes on every scheduler.
//
// A snapshot is `clean` when no slot carries the fault::kLostPacket poison
// stamp of a dropped packet: a clean snapshot precedes every destructive
// fault effect and is a valid recovery point (recover::Supervisor retries
// from the last clean one).
//
// This header is header-only and depends only on low-level value/exec/fault
// vocabulary, so the machine engines can include it without a link cycle
// against the recover library (which itself links machine for the
// Supervisor).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/packet_counters.hpp"
#include "fault/plan.hpp"
#include "run/io.hpp"
#include "support/value.hpp"

namespace valpipe::recover {

/// Malformed, truncated, or graph-mismatched snapshot bytes.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// One operand slot (mirrors exec::Slot).
struct SlotImage {
  bool full = false;
  Value v{};
  std::int64_t readyAt = 0;
  std::int64_t freedAt = 0;
};

/// Per-cell dynamic scalars plus the firing count (exec::CellDyn + firings).
struct CellImage {
  std::int64_t emitted = 0;
  std::int64_t busyUntil = 0;
  std::uint64_t firings = 0;
};

/// One composite FIFO cell's ring (exec::FifoState minus the transient
/// phase-A decision cache, which is dead between instruction times).
struct FifoImage {
  std::uint32_t cell = 0;  ///< cell index this ring belongs to
  std::int32_t depth = 0;
  std::uint32_t head = 0;
  std::uint32_t count = 0;
  std::int64_t accepted = 0;
  std::int64_t emitted = 0;
  std::int64_t lastAccept = 0;
  std::int64_t lastEmit = 0;
  std::vector<Value> vals;
  std::vector<std::int64_t> readyAt;
  std::vector<std::int64_t> emitAt;
};

/// Complete engine state at one quiescent instruction-time boundary (after
/// phase B of step `now`, before step `now + 1` begins).
struct Snapshot {
  // --- identity / fingerprint ---
  std::uint64_t cells = 0;      ///< eg.size() at capture
  std::uint64_t slotCount = 0;  ///< eg.slotCount() at capture
  std::string origin;           ///< scheduler label, informational
  std::int64_t now = 0;         ///< instruction time of the boundary
  std::int64_t lastFire = -1;   ///< most recent firing time (-1: none yet)
  bool clean = true;            ///< no kLostPacket poison anywhere

  // --- flat engine state ---
  std::vector<SlotImage> slots;
  std::vector<CellImage> cellDyn;
  std::vector<FifoImage> fifos;  ///< composite cells only (sparse)

  // --- counters ---
  exec::PacketCounters packets;
  std::uint64_t totalFirings = 0;
  std::array<std::uint64_t, 4> fuBusy{};
  /// Per-unit release times of the limited FU classes (empty = unlimited).
  std::array<std::vector<std::int64_t>, 4> fuFreeAt;
  std::vector<std::uint64_t> pePackets;  ///< per PE (placement runs only)

  // --- results accumulated so far ---
  run::StreamMap outputs;
  std::map<std::string, std::vector<std::int64_t>> outputTimes;
  run::StreamMap amFinal;

  // --- guard counters (present when the run had guards on) ---
  bool hasGuards = false;
  std::vector<std::int64_t> guardSent;
  std::vector<std::int64_t> guardAcked;
  std::vector<std::int64_t> guardDelivered;
  std::vector<std::int64_t> guardConsumed;

  // --- fault-injection state ---
  /// The injector's splitmix64 decision-stream word: one entry, or empty
  /// when the run carries no plan.  (A list so older files, which could
  /// hold one word per engine lane, keep their byte layout.)
  std::vector<std::uint64_t> rngLanes;
  fault::Counters faultCounters;
};

// --- binary serialization ---------------------------------------------------
//
// Little-endian, length-prefixed, fully validated on read: truncation or a
// hostile count throws SnapshotError, never reads out of bounds.

namespace detail {

inline constexpr std::uint32_t kMagic = 0x4e535056;  // "VPSN"
inline constexpr std::uint32_t kVersion = 1;

struct Writer {
  std::string out;

  void u8(std::uint8_t v) { out.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    u64(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out.append(s);
  }
  void value(const Value& v) {
    switch (v.kind()) {
      case ValueKind::Boolean:
        u8(0);
        u8(v.asBoolean() ? 1 : 0);
        break;
      case ValueKind::Integer:
        u8(1);
        i64(v.asInteger());
        break;
      case ValueKind::Real:
        u8(2);
        f64(v.asReal());
        break;
      case ValueKind::Pack:
        u8(3);
        u32(static_cast<std::uint32_t>(v.laneWidth()));
        for (std::size_t i = 0; i < v.laneWidth(); ++i) value(v.lane(i));
        break;
    }
  }
  void values(const std::vector<Value>& vs) {
    u32(static_cast<std::uint32_t>(vs.size()));
    for (const Value& v : vs) value(v);
  }
  void i64s(const std::vector<std::int64_t>& vs) {
    u32(static_cast<std::uint32_t>(vs.size()));
    for (std::int64_t v : vs) i64(v);
  }
  void u64s(const std::vector<std::uint64_t>& vs) {
    u32(static_cast<std::uint32_t>(vs.size()));
    for (std::uint64_t v : vs) u64(v);
  }
};

struct Reader {
  const unsigned char* p = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;

  Reader(const void* data, std::size_t n)
      : p(static_cast<const unsigned char*>(data)), size(n) {}

  std::size_t remaining() const { return size - pos; }
  void need(std::size_t n) const {
    if (remaining() < n) throw SnapshotError("truncated snapshot");
  }
  std::uint8_t u8() {
    need(1);
    return p[pos++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[pos++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[pos++]) << (8 * i);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  /// A hostile count larger than the bytes that could back it is rejected
  /// before any allocation (every element takes at least one byte).
  std::uint32_t count() {
    const std::uint32_t n = u32();
    if (n > remaining()) throw SnapshotError("snapshot count exceeds payload");
    return n;
  }
  std::string str() {
    const std::uint32_t n = count();
    need(n);
    std::string s(reinterpret_cast<const char*>(p) + pos, n);
    pos += n;
    return s;
  }
  Value value(int depth = 0) {
    if (depth > 1) throw SnapshotError("nested pack in snapshot");
    switch (u8()) {
      case 0: return Value(u8() != 0);
      case 1: return Value(i64());
      case 2: return Value(f64());
      case 3: {
        const std::uint32_t n = count();
        std::vector<Value> lanes;
        lanes.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) lanes.push_back(value(depth + 1));
        try {
          return Value::pack(lanes);
        } catch (const ValueError& e) {  // empty, or mixed lane kinds
          throw SnapshotError(std::string("bad lane pack in snapshot: ") +
                              e.what());
        }
      }
      default: throw SnapshotError("unknown value kind in snapshot");
    }
  }
  std::vector<Value> values() {
    const std::uint32_t n = count();
    std::vector<Value> vs;
    vs.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) vs.push_back(value());
    return vs;
  }
  std::vector<std::int64_t> i64s() {
    const std::uint32_t n = count();
    std::vector<std::int64_t> vs(n);
    for (std::uint32_t i = 0; i < n; ++i) vs[i] = i64();
    return vs;
  }
  std::vector<std::uint64_t> u64s() {
    const std::uint32_t n = count();
    std::vector<std::uint64_t> vs(n);
    for (std::uint32_t i = 0; i < n; ++i) vs[i] = u64();
    return vs;
  }
};

}  // namespace detail

inline std::string serialize(const Snapshot& s) {
  detail::Writer w;
  w.u32(detail::kMagic);
  w.u32(detail::kVersion);
  w.u64(s.cells);
  w.u64(s.slotCount);
  w.str(s.origin);
  w.i64(s.now);
  w.i64(s.lastFire);
  w.u8(s.clean ? 1 : 0);

  w.u32(static_cast<std::uint32_t>(s.slots.size()));
  for (const SlotImage& sl : s.slots) {
    w.u8(sl.full ? 1 : 0);
    w.value(sl.v);
    w.i64(sl.readyAt);
    w.i64(sl.freedAt);
  }
  w.u32(static_cast<std::uint32_t>(s.cellDyn.size()));
  for (const CellImage& c : s.cellDyn) {
    w.i64(c.emitted);
    w.i64(c.busyUntil);
    w.u64(c.firings);
  }
  w.u32(static_cast<std::uint32_t>(s.fifos.size()));
  for (const FifoImage& f : s.fifos) {
    w.u32(f.cell);
    w.u32(static_cast<std::uint32_t>(f.depth));
    w.u32(f.head);
    w.u32(f.count);
    w.i64(f.accepted);
    w.i64(f.emitted);
    w.i64(f.lastAccept);
    w.i64(f.lastEmit);
    w.values(f.vals);
    w.i64s(f.readyAt);
    w.i64s(f.emitAt);
  }

  w.u64(s.packets.resultPackets);
  w.u64(s.packets.ackPackets);
  w.u64(s.packets.networkResultPackets);
  for (std::uint64_t v : s.packets.opPacketsByClass) w.u64(v);
  w.u64(s.totalFirings);
  for (std::uint64_t v : s.fuBusy) w.u64(v);
  for (const auto& freeAt : s.fuFreeAt) w.i64s(freeAt);
  w.u64s(s.pePackets);

  auto streamMap = [&w](const run::StreamMap& m) {
    w.u32(static_cast<std::uint32_t>(m.size()));
    for (const auto& [name, vals] : m) {
      w.str(name);
      w.values(vals);
    }
  };
  streamMap(s.outputs);
  w.u32(static_cast<std::uint32_t>(s.outputTimes.size()));
  for (const auto& [name, times] : s.outputTimes) {
    w.str(name);
    w.i64s(times);
  }
  streamMap(s.amFinal);

  w.u8(s.hasGuards ? 1 : 0);
  if (s.hasGuards) {
    w.i64s(s.guardSent);
    w.i64s(s.guardAcked);
    w.i64s(s.guardDelivered);
    w.i64s(s.guardConsumed);
  }

  w.u64s(s.rngLanes);
  w.u64(s.faultCounters.delayedResults);
  w.u64(0);  // retired counter word, kept so the byte layout stays version 1
  w.u64(s.faultCounters.outageDenials);
  w.u64(s.faultCounters.droppedResults);
  w.u64(s.faultCounters.duplicatedResults);
  w.u64(s.faultCounters.droppedAcks);
  w.u64(s.faultCounters.duplicatedAcks);
  return std::move(w.out);
}

inline Snapshot deserialize(const void* data, std::size_t size) {
  detail::Reader r(data, size);
  if (r.u32() != detail::kMagic) throw SnapshotError("not a valpipe snapshot");
  if (r.u32() != detail::kVersion)
    throw SnapshotError("unsupported snapshot version");
  Snapshot s;
  s.cells = r.u64();
  s.slotCount = r.u64();
  s.origin = r.str();
  s.now = r.i64();
  s.lastFire = r.i64();
  s.clean = r.u8() != 0;

  const std::uint32_t nSlots = r.count();
  s.slots.resize(nSlots);
  for (SlotImage& sl : s.slots) {
    sl.full = r.u8() != 0;
    sl.v = r.value();
    sl.readyAt = r.i64();
    sl.freedAt = r.i64();
  }
  const std::uint32_t nCells = r.count();
  s.cellDyn.resize(nCells);
  for (CellImage& c : s.cellDyn) {
    c.emitted = r.i64();
    c.busyUntil = r.i64();
    c.firings = r.u64();
  }
  const std::uint32_t nFifos = r.count();
  s.fifos.resize(nFifos);
  for (FifoImage& f : s.fifos) {
    f.cell = r.u32();
    f.depth = static_cast<std::int32_t>(r.u32());
    f.head = r.u32();
    f.count = r.u32();
    f.accepted = r.i64();
    f.emitted = r.i64();
    f.lastAccept = r.i64();
    f.lastEmit = r.i64();
    f.vals = r.values();
    f.readyAt = r.i64s();
    f.emitAt = r.i64s();
    if (f.depth < 2 || f.vals.size() != static_cast<std::size_t>(f.depth - 1) ||
        f.readyAt.size() != f.vals.size() || f.emitAt.size() != f.vals.size() ||
        f.head >= f.vals.size() || f.count > f.vals.size())
      throw SnapshotError("malformed composite-FIFO ring in snapshot");
  }

  s.packets.resultPackets = r.u64();
  s.packets.ackPackets = r.u64();
  s.packets.networkResultPackets = r.u64();
  for (std::uint64_t& v : s.packets.opPacketsByClass) v = r.u64();
  s.totalFirings = r.u64();
  for (std::uint64_t& v : s.fuBusy) v = r.u64();
  for (auto& freeAt : s.fuFreeAt) freeAt = r.i64s();
  s.pePackets = r.u64s();

  auto streamMap = [&r]() {
    run::StreamMap m;
    const std::uint32_t n = r.count();
    for (std::uint32_t i = 0; i < n; ++i) {
      std::string name = r.str();
      m[std::move(name)] = r.values();
    }
    return m;
  };
  s.outputs = streamMap();
  const std::uint32_t nTimes = r.count();
  for (std::uint32_t i = 0; i < nTimes; ++i) {
    std::string name = r.str();
    s.outputTimes[std::move(name)] = r.i64s();
  }
  s.amFinal = streamMap();

  s.hasGuards = r.u8() != 0;
  if (s.hasGuards) {
    s.guardSent = r.i64s();
    s.guardAcked = r.i64s();
    s.guardDelivered = r.i64s();
    s.guardConsumed = r.i64s();
  }

  s.rngLanes = r.u64s();
  s.faultCounters.delayedResults = r.u64();
  r.u64();  // retired counter word (see serialize)
  s.faultCounters.outageDenials = r.u64();
  s.faultCounters.droppedResults = r.u64();
  s.faultCounters.duplicatedResults = r.u64();
  s.faultCounters.droppedAcks = r.u64();
  s.faultCounters.duplicatedAcks = r.u64();
  if (r.remaining() != 0) throw SnapshotError("trailing bytes after snapshot");
  return s;
}

inline Snapshot deserialize(const std::string& bytes) {
  return deserialize(bytes.data(), bytes.size());
}

inline void saveFile(const Snapshot& s, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw SnapshotError("cannot open '" + path + "' for writing");
  const std::string bytes = serialize(s);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw SnapshotError("short write to '" + path + "'");
}

inline Snapshot loadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SnapshotError("cannot open snapshot '" + path + "'");
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return deserialize(bytes);
}

// --- checkpoint sink --------------------------------------------------------

/// Where the engines deposit periodic snapshots (run::RunOptions::checkpoints).
/// Retains the newest snapshot and the newest *clean* snapshot — the
/// Supervisor's recovery point — plus, under keepAll, every capture (the
/// round-trip property tests pick arbitrary mid-run boundaries).
class CheckpointLog {
 public:
  bool keepAll = false;

  void add(Snapshot&& s) {
    ++taken_;
    if (s.clean) lastClean_ = s;  // copy: `last_` below takes the original
    if (keepAll) {
      last_ = s;
      all_.push_back(std::move(s));
    } else {
      last_ = std::move(s);
    }
  }

  std::size_t taken() const { return taken_; }
  const Snapshot* last() const { return last_ ? &*last_ : nullptr; }
  const Snapshot* lastClean() const {
    return lastClean_ ? &*lastClean_ : nullptr;
  }
  const std::vector<Snapshot>& all() const { return all_; }

  void clear() {
    taken_ = 0;
    last_.reset();
    lastClean_.reset();
    all_.clear();
  }

 private:
  std::size_t taken_ = 0;
  std::optional<Snapshot> last_;
  std::optional<Snapshot> lastClean_;
  std::vector<Snapshot> all_;
};

}  // namespace valpipe::recover

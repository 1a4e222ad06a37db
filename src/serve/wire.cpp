#include "serve/wire.hpp"

#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <system_error>

namespace valpipe::serve {

namespace {

// --- byte writer -----------------------------------------------------------

struct Writer {
  std::vector<std::uint8_t> out;

  void u8(std::uint8_t v) { out.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
  }
  void value(const Value& v) {
    switch (v.kind()) {
      case ValueKind::Boolean:
        u8(0);
        u64(v.asBoolean() ? 1 : 0);
        return;
      case ValueKind::Integer:
        u8(1);
        i64(v.asInteger());
        return;
      case ValueKind::Real:
        u8(2);
        u64(std::bit_cast<std::uint64_t>(v.asReal()));
        return;
      case ValueKind::Pack:
        break;
    }
    throw ProtocolError("lane packs never cross the wire");
  }
  void stream(const std::vector<Value>& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    for (const Value& v : s) value(v);
  }
  void streamMap(const run::StreamMap& m) {
    u32(static_cast<std::uint32_t>(m.size()));
    for (const auto& [name, s] : m) {
      str(name);
      stream(s);
    }
  }
  void options(const WireOptions& o) {
    u8(o.fuseFifos ? 1 : 0);
    u8(0);  // reserved (WireOptions)
    u32(o.waves);
    i64(o.watchdog);
    i64(o.maxInstructionTimes);
    u8(o.guards ? 1 : 0);
    u8(o.wantMetrics ? 1 : 0);
    str(o.tenant);
    u32(o.priority);
    u32(o.maxAttempts);
    i64(o.checkpointEvery);
  }
};

// --- bounds-checked byte reader --------------------------------------------

struct Reader {
  const std::uint8_t* p;
  std::size_t left;

  void need(std::size_t n) const {
    if (n > left) throw ProtocolError("truncated frame");
  }
  std::uint8_t u8() {
    need(1);
    std::uint8_t v = *p;
    ++p;
    --left;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[i]) << (8 * i);
    p += 4;
    left -= 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[i]) << (8 * i);
    p += 8;
    left -= 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);  // the count can never exceed what the frame actually holds
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return s;
  }
  Value value() {
    const std::uint8_t kind = u8();
    const std::uint64_t payload = u64();
    switch (kind) {
      case 0:
        if (payload > 1) throw ProtocolError("boolean payload not 0/1");
        return Value(payload == 1);
      case 1:
        return Value(static_cast<std::int64_t>(payload));
      case 2: {
        const double d = std::bit_cast<double>(payload);
        return Value(d);
      }
      default:
        throw ProtocolError("unknown value kind " + std::to_string(kind));
    }
  }
  std::vector<Value> stream() {
    const std::uint32_t n = u32();
    // Each element is at least 9 bytes; a count past that is a lie about
    // bytes we do not have — reject before reserving anything.
    if (std::uint64_t(n) * 9 > left) throw ProtocolError("stream count lies");
    std::vector<Value> s;
    s.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) s.push_back(value());
    return s;
  }
  run::StreamMap streamMap() {
    const std::uint32_t n = u32();
    // Min bytes per entry: empty name (4) + empty stream (4).
    if (std::uint64_t(n) * 8 > left)
      throw ProtocolError("stream map count lies");
    run::StreamMap m;
    for (std::uint32_t i = 0; i < n; ++i) {
      std::string name = str();
      if (m.count(name)) throw ProtocolError("duplicate stream '" + name + "'");
      m.emplace(std::move(name), stream());
    }
    return m;
  }
  WireOptions options() {
    WireOptions o;
    o.fuseFifos = u8() != 0;
    if (const std::uint8_t reserved = u8(); reserved != 0)
      throw ProtocolError("reserved option byte is " +
                          std::to_string(reserved) + ", not 0");
    o.waves = u32();
    if (o.waves == 0 || o.waves > 1'000'000)
      throw ProtocolError("waves out of range");
    o.watchdog = i64();
    o.maxInstructionTimes = i64();
    if (o.watchdog < 0 || o.maxInstructionTimes < 0)
      throw ProtocolError("negative run cap");
    o.guards = u8() != 0;
    o.wantMetrics = u8() != 0;
    o.tenant = str();
    if (o.tenant.size() > 256) throw ProtocolError("tenant name too long");
    o.priority = u32();
    o.maxAttempts = u32();
    if (o.maxAttempts == 0 || o.maxAttempts > 1000)
      throw ProtocolError("maxAttempts out of range");
    o.checkpointEvery = i64();
    if (o.checkpointEvery < 0)
      throw ProtocolError("negative checkpoint cadence");
    return o;
  }
  void done() const {
    if (left != 0) throw ProtocolError("trailing bytes in frame");
  }
};

}  // namespace

core::CompileOptions WireOptions::compileOptions() const {
  core::CompileOptions c;
  c.lower = true;
  c.fuseFifos = fuseFifos;
  return c;
}

SessionOptions WireOptions::sessionOptions() const {
  SessionOptions s;
  s.waves = static_cast<int>(waves);
  s.watchdog = watchdog;
  s.maxInstructionTimes = maxInstructionTimes;
  s.guards = guards;
  s.wantMetrics = wantMetrics;
  s.tenant = tenant;
  s.priority = static_cast<int>(priority);
  s.maxAttempts = static_cast<int>(maxAttempts);
  s.checkpointEvery = checkpointEvery;
  return s;
}

ClientMsg parseClient(const std::uint8_t* data, std::size_t len) {
  if (len > kMaxFrame) throw ProtocolError("frame too large");
  Reader r{data, len};
  ClientMsg m;
  const std::uint8_t tag = r.u8();
  m.type = static_cast<MsgType>(tag);
  switch (m.type) {
    case MsgType::Open:
      m.session = r.u32();
      m.source = r.str();
      m.options = r.options();
      break;
    case MsgType::Push:
      m.session = r.u32();
      m.stream = r.str();
      m.wave = r.stream();
      break;
    case MsgType::CloseInputs:
    case MsgType::Pull:
      m.session = r.u32();
      break;
    case MsgType::Run:
      m.source = r.str();
      m.options = r.options();
      m.inputs = r.streamMap();
      break;
    case MsgType::Shutdown:
    case MsgType::Ping:
      break;
    default:
      throw ProtocolError("unknown message type " + std::to_string(tag));
  }
  r.done();
  return m;
}

ReplyMsg parseReply(const std::uint8_t* data, std::size_t len) {
  if (len > kMaxFrame) throw ProtocolError("frame too large");
  Reader r{data, len};
  ReplyMsg m;
  const std::uint8_t tag = r.u8();
  m.type = static_cast<MsgType>(tag);
  switch (m.type) {
    case MsgType::Opened:
    case MsgType::Ack:
      m.session = r.u32();
      break;
    case MsgType::OutputChunk:
      m.session = r.u32();
      m.hasWave = r.u8() != 0;
      if (m.hasWave) m.wave = r.stream();
      break;
    case MsgType::RunResult:
      m.status = r.u8();
      m.error = r.str();
      m.outputs = r.streamMap();
      m.cycles = r.i64();
      m.firings = r.u64();
      m.maxLanes = r.u32();
      m.latencyMicros = r.i64();
      m.cacheHit = r.u8() != 0;
      m.attempts = r.u32();
      m.retryAfterMillis = r.i64();
      break;
    case MsgType::Error:
      m.session = r.u32();
      m.status = r.u8();
      m.error = r.str();
      m.retryAfterMillis = r.i64();
      break;
    case MsgType::Pong:
      break;
    default:
      throw ProtocolError("unknown reply type " + std::to_string(tag));
  }
  r.done();
  return m;
}

std::vector<std::uint8_t> encodeOpen(std::uint32_t session,
                                     const std::string& source,
                                     const WireOptions& o) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Open));
  w.u32(session);
  w.str(source);
  w.options(o);
  return std::move(w.out);
}

std::vector<std::uint8_t> encodePush(std::uint32_t session,
                                     const std::string& stream,
                                     const std::vector<Value>& wave) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Push));
  w.u32(session);
  w.str(stream);
  w.stream(wave);
  return std::move(w.out);
}

std::vector<std::uint8_t> encodeCloseInputs(std::uint32_t session) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::CloseInputs));
  w.u32(session);
  return std::move(w.out);
}

std::vector<std::uint8_t> encodePull(std::uint32_t session) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Pull));
  w.u32(session);
  return std::move(w.out);
}

std::vector<std::uint8_t> encodeRun(const std::string& source,
                                    const WireOptions& o,
                                    const run::StreamMap& inputs) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Run));
  w.str(source);
  w.options(o);
  w.streamMap(inputs);
  return std::move(w.out);
}

std::vector<std::uint8_t> encodeShutdown() {
  return {static_cast<std::uint8_t>(MsgType::Shutdown)};
}

std::vector<std::uint8_t> encodePing() {
  return {static_cast<std::uint8_t>(MsgType::Ping)};
}

std::vector<std::uint8_t> encodeReply(const ReplyMsg& m) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(m.type));
  switch (m.type) {
    case MsgType::Opened:
    case MsgType::Ack:
      w.u32(m.session);
      break;
    case MsgType::OutputChunk:
      w.u32(m.session);
      w.u8(m.hasWave ? 1 : 0);
      if (m.hasWave) w.stream(m.wave);
      break;
    case MsgType::RunResult:
      w.u8(m.status);
      w.str(m.error);
      w.streamMap(m.outputs);
      w.i64(m.cycles);
      w.u64(m.firings);
      w.u32(m.maxLanes);
      w.i64(m.latencyMicros);
      w.u8(m.cacheHit ? 1 : 0);
      w.u32(m.attempts);
      w.i64(m.retryAfterMillis);
      break;
    case MsgType::Error:
      w.u32(m.session);
      w.u8(m.status);
      w.str(m.error);
      w.i64(m.retryAfterMillis);
      break;
    case MsgType::Pong:
      break;
    default:
      throw ProtocolError("not a reply type");
  }
  return std::move(w.out);
}

// --- framed fd transport ---------------------------------------------------

namespace {

/// Reads exactly n bytes.  Returns false on EOF before the first byte when
/// `eofOk`; throws ProtocolError on EOF mid-read, system_error on failure.
bool readAll(int fd, std::uint8_t* buf, std::size_t n, bool eofOk) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "read");
    }
    if (r == 0) {
      if (got == 0 && eofOk) return false;
      throw ProtocolError("EOF mid-frame");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

void writeAll(int fd, const std::uint8_t* buf, std::size_t n) {
  std::size_t put = 0;
  while (put < n) {
    const ssize_t r = ::write(fd, buf + put, n - put);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "write");
    }
    put += static_cast<std::size_t>(r);
  }
}

}  // namespace

std::optional<std::vector<std::uint8_t>> readFrame(int fd) {
  std::uint8_t hdr[4];
  if (!readAll(fd, hdr, 4, /*eofOk=*/true)) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= std::uint32_t(hdr[i]) << (8 * i);
  if (len > kMaxFrame)
    throw ProtocolError("frame length " + std::to_string(len) + " exceeds " +
                        std::to_string(kMaxFrame));
  std::vector<std::uint8_t> payload(len);
  if (len) readAll(fd, payload.data(), len, /*eofOk=*/false);
  return payload;
}

void writeFrame(int fd, const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxFrame) throw ProtocolError("frame too large");
  std::uint8_t hdr[4];
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) hdr[i] = std::uint8_t(len >> (8 * i));
  writeAll(fd, hdr, 4);
  if (len) writeAll(fd, payload.data(), len);
}

}  // namespace valpipe::serve

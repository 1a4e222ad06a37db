// Length-prefixed wire protocol of valpipe-serve.
//
// Framing: every message is a little-endian u32 payload length followed by
// that many payload bytes; payloads over kMaxFrame are rejected before any
// allocation, so a hostile length cannot balloon memory.  The first payload
// byte is the message type; the rest is the typed body.
//
// Body primitives (all little-endian, all bounds-checked on decode):
//   u8 / u32 / i64 / f64 (IEEE-754 bit pattern in a u64)
//   string     = u32 byte count + bytes (count checked against the frame)
//   value      = u8 ValueKind tag (0 bool / 1 int / 2 real) + 8-byte payload;
//                lane packs are a server-internal representation and are
//                rejected on both encode and decode
//   stream     = u32 element count + that many values
//   stream map = u32 stream count + that many (string name, stream) pairs
//
// The decoder (parseClient / parseReply) is total: ANY byte sequence either
// decodes into exactly one message or throws ProtocolError — truncated
// bodies, trailing garbage, unknown tags, oversized counts, and hostile
// lengths all land in ProtocolError, never UB, a crash, or a hang.  This is
// the contract the serve fuzz test drives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "run/io.hpp"
#include "serve/server.hpp"

namespace valpipe::serve {

/// Malformed frame or body.  The connection that sent it gets an Error reply
/// (when the session id could be recovered) and is then dropped.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

/// Hard ceiling on one frame's payload (16 MiB): bigger arrays must stream
/// as multiple Push/OutputChunk waves — that is the point of chunked I/O.
inline constexpr std::uint32_t kMaxFrame = 1u << 24;

enum class MsgType : std::uint8_t {
  // client -> server
  Open = 1,         ///< open a streaming session
  Push = 2,         ///< one wave of one input stream
  CloseInputs = 3,  ///< no more input
  Pull = 4,         ///< request the next completed output wave
  Run = 5,          ///< one-shot: whole inputs in, whole outputs back
  Shutdown = 6,     ///< stop the server (drains, then exits)
  Ping = 7,
  // server -> client
  Opened = 0x81,
  Ack = 0x82,          ///< Push/CloseInputs/Shutdown accepted
  OutputChunk = 0x83,  ///< reply to Pull
  RunResult = 0x84,    ///< reply to Run
  Error = 0x85,        ///< structured failure for the named session
  Pong = 0x86,
};

/// The compile/run knobs a client may set per request.  A subset of
/// core::CompileOptions + serve::SessionOptions chosen to cover the serving
/// tests (notably fuseFifos, which keys the program cache).
///
/// Encoded body, in order: u8 fuseFifos, u8 reserved, u32 waves, i64
/// watchdog, i64 maxInstructionTimes, u8 guards, u8 wantMetrics, string
/// tenant, u32 priority, u32 maxAttempts, i64 checkpointEvery.  The reserved
/// byte once chose the scheduler; the server now runs every wave on
/// EventDriven, so encoders write 0 and the decoder rejects anything else
/// with ProtocolError.
struct WireOptions {
  bool fuseFifos = true;
  std::uint32_t waves = 1;
  std::int64_t watchdog = 0;
  std::int64_t maxInstructionTimes = 50'000'000;
  bool guards = false;
  bool wantMetrics = false;
  std::string tenant;              ///< rate-limit bucket ("" = anonymous)
  std::uint32_t priority = 0;      ///< overload shedding rank
  std::uint32_t maxAttempts = 1;   ///< supervised per-wave retries (1 = off)
  std::int64_t checkpointEvery = 0;  ///< within-wave snapshot cadence

  core::CompileOptions compileOptions() const;
  SessionOptions sessionOptions() const;
};

/// One decoded client->server message (tag + the union of bodies; unused
/// fields are value-initialized).
struct ClientMsg {
  MsgType type = MsgType::Ping;
  std::uint32_t session = 0;  ///< Open/Push/CloseInputs/Pull
  std::string source;         ///< Open/Run
  WireOptions options;        ///< Open/Run
  std::string stream;         ///< Push
  std::vector<Value> wave;    ///< Push
  run::StreamMap inputs;      ///< Run
};

/// One decoded server->client message.
struct ReplyMsg {
  MsgType type = MsgType::Pong;
  std::uint32_t session = 0;
  std::uint8_t status = 0;  ///< serve::Status as an integer
  std::string error;
  bool hasWave = false;        ///< OutputChunk: false = stream finished
  std::vector<Value> wave;     ///< OutputChunk
  run::StreamMap outputs;      ///< RunResult
  std::int64_t cycles = 0;     ///< RunResult
  std::uint64_t firings = 0;   ///< RunResult
  std::uint32_t maxLanes = 1;  ///< RunResult
  std::int64_t latencyMicros = 0;  ///< RunResult
  bool cacheHit = false;           ///< RunResult
  std::uint32_t attempts = 1;      ///< RunResult: supervised retries used
  std::int64_t retryAfterMillis = 0;  ///< RunResult/Error: Overloaded hint
};

/// Decodes one client->server payload (the bytes AFTER the length prefix).
/// Total: returns a message or throws ProtocolError.
ClientMsg parseClient(const std::uint8_t* data, std::size_t len);

/// Decodes one server->client payload.  Same totality contract.
ReplyMsg parseReply(const std::uint8_t* data, std::size_t len);

// --- encoders (always produce parseable payloads) --------------------------
std::vector<std::uint8_t> encodeOpen(std::uint32_t session,
                                     const std::string& source,
                                     const WireOptions& o);
std::vector<std::uint8_t> encodePush(std::uint32_t session,
                                     const std::string& stream,
                                     const std::vector<Value>& wave);
std::vector<std::uint8_t> encodeCloseInputs(std::uint32_t session);
std::vector<std::uint8_t> encodePull(std::uint32_t session);
std::vector<std::uint8_t> encodeRun(const std::string& source,
                                    const WireOptions& o,
                                    const run::StreamMap& inputs);
std::vector<std::uint8_t> encodeShutdown();
std::vector<std::uint8_t> encodePing();

std::vector<std::uint8_t> encodeReply(const ReplyMsg& m);

// --- framed transport over a file descriptor -------------------------------

/// Reads one length-prefixed frame.  nullopt on clean EOF at a frame
/// boundary; ProtocolError on a hostile length or mid-frame EOF; throws
/// std::system_error on an I/O error.
std::optional<std::vector<std::uint8_t>> readFrame(int fd);

/// Writes one frame (length prefix + payload).  Throws on I/O error or an
/// oversized payload.
void writeFrame(int fd, const std::vector<std::uint8_t>& payload);

}  // namespace valpipe::serve

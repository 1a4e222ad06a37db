// Wire-protocol robustness fuzzing (serve/wire.hpp): the decoder is total —
// ANY byte sequence fed to parseClient / parseReply either decodes into
// exactly one message or throws ProtocolError with a message; never a crash,
// a different exception, or a hang.  Mirrors tests/test_frontend_fuzz.cpp:
// deterministic (seeded) mutations over a corpus of valid encodings, plus
// hand-built hostile frames.  Run under the ASan preset (ctest -L fault) to
// catch out-of-bounds reads the happy path never exercises.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "serve/wire.hpp"
#include "testing.hpp"

namespace valpipe {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Valid client and reply payloads covering every message type.
std::vector<Bytes> corpus() {
  serve::WireOptions wo;
  wo.fuseFifos = false;
  wo.waves = 3;
  wo.watchdog = 1000;
  wo.guards = true;

  run::StreamMap inputs;
  inputs["A"] = {Value(1.5), Value(std::int64_t{-2}), Value(true)};
  inputs["B"] = {Value(0.0)};

  std::vector<Bytes> payloads = {
      serve::encodeOpen(7, testing::example1Source(8), wo),
      serve::encodePush(7, "A", inputs["A"]),
      serve::encodeCloseInputs(7),
      serve::encodePull(7),
      serve::encodeRun(testing::example2Source(6), serve::WireOptions{},
                       inputs),
      serve::encodeShutdown(),
      serve::encodePing(),
  };
  serve::ReplyMsg rr;
  rr.type = serve::MsgType::RunResult;
  rr.session = 7;
  rr.outputs = inputs;
  rr.cycles = 123;
  rr.firings = 456;
  rr.maxLanes = 4;
  rr.latencyMicros = 789;
  rr.cacheHit = true;
  serve::ReplyMsg err;
  err.type = serve::MsgType::Error;
  err.session = 7;
  err.status = 4;
  err.error = "stalled: cell 12 waiting on ack";
  serve::ReplyMsg chunk;
  chunk.type = serve::MsgType::OutputChunk;
  chunk.session = 9;
  chunk.hasWave = true;
  chunk.wave = inputs["A"];
  for (const auto& m : {rr, err, chunk}) payloads.push_back(serve::encodeReply(m));
  return payloads;
}

/// The totality contract: decode or ProtocolError, nothing else.
void mustNotCrash(const Bytes& b, const std::string& what) {
  try {
    serve::parseClient(b.data(), b.size());
  } catch (const serve::ProtocolError& e) {
    EXPECT_FALSE(std::string(e.what()).empty()) << what;
  }
  try {
    serve::parseReply(b.data(), b.size());
  } catch (const serve::ProtocolError& e) {
    EXPECT_FALSE(std::string(e.what()).empty()) << what;
  }
}

TEST(ServeWireFuzz, RoundtripEveryMessageType) {
  serve::WireOptions wo;
  wo.fuseFifos = false;
  wo.waves = 5;
  wo.watchdog = 42;
  wo.maxInstructionTimes = 99;
  wo.guards = true;
  wo.wantMetrics = true;
  run::StreamMap inputs;
  inputs["A"] = {Value(1.25), Value(std::int64_t{7}), Value(false)};

  const auto open = serve::encodeOpen(3, "src text", wo);
  serve::ClientMsg m = serve::parseClient(open.data(), open.size());
  EXPECT_EQ(m.type, serve::MsgType::Open);
  EXPECT_EQ(m.session, 3u);
  EXPECT_EQ(m.source, "src text");
  EXPECT_EQ(m.options.fuseFifos, wo.fuseFifos);
  EXPECT_EQ(m.options.waves, wo.waves);
  EXPECT_EQ(m.options.watchdog, wo.watchdog);
  EXPECT_EQ(m.options.maxInstructionTimes, wo.maxInstructionTimes);
  EXPECT_EQ(m.options.guards, wo.guards);
  EXPECT_EQ(m.options.wantMetrics, wo.wantMetrics);

  const auto push = serve::encodePush(3, "A", inputs["A"]);
  m = serve::parseClient(push.data(), push.size());
  EXPECT_EQ(m.type, serve::MsgType::Push);
  EXPECT_EQ(m.stream, "A");
  EXPECT_EQ(m.wave, inputs["A"]);

  const auto runMsg = serve::encodeRun("f", serve::WireOptions{}, inputs);
  m = serve::parseClient(runMsg.data(), runMsg.size());
  EXPECT_EQ(m.type, serve::MsgType::Run);
  EXPECT_EQ(m.inputs, inputs);

  serve::ReplyMsg r;
  r.type = serve::MsgType::RunResult;
  r.session = 9;
  r.status = 0;
  r.outputs = inputs;
  r.cycles = -5;
  r.firings = 77;
  r.maxLanes = 8;
  r.latencyMicros = 12345;
  r.cacheHit = true;
  const auto enc = serve::encodeReply(r);
  const serve::ReplyMsg back = serve::parseReply(enc.data(), enc.size());
  EXPECT_EQ(back.type, r.type);
  // RunResult carries no session id (a one-shot Run owns its connection).
  EXPECT_EQ(back.outputs, r.outputs);
  EXPECT_EQ(back.cycles, r.cycles);
  EXPECT_EQ(back.firings, r.firings);
  EXPECT_EQ(back.maxLanes, r.maxLanes);
  EXPECT_EQ(back.latencyMicros, r.latencyMicros);
  EXPECT_EQ(back.cacheHit, r.cacheHit);
}

TEST(ServeWireFuzz, SchedulerByteIsReserved) {
  // The options byte after fuseFifos once chose the scheduler; every client
  // sent 0 there.  It keeps its place in Open and Run frames: 0 decodes,
  // and any other value is a ProtocolError.
  const std::string src = "src";
  serve::WireOptions wo;
  wo.waves = 3;
  const Bytes open = serve::encodeOpen(1, src, wo);
  const Bytes run = serve::encodeRun(src, wo, {});
  // type, [u32 session,] u32-counted source, u8 fuseFifos, reserved byte.
  const std::pair<const Bytes*, std::size_t> frames[] = {
      {&open, 1 + 4 + 4 + src.size() + 1}, {&run, 1 + 4 + src.size() + 1}};
  for (const auto& [frame, at] : frames) {
    ASSERT_EQ((*frame)[at], 0);
    const serve::ClientMsg m = serve::parseClient(frame->data(), frame->size());
    EXPECT_EQ(m.source, src);
    EXPECT_EQ(m.options.waves, 3u);  // the fields after the byte stay put
    for (int v = 1; v <= 255; ++v) {
      Bytes bad = *frame;
      bad[at] = static_cast<std::uint8_t>(v);
      EXPECT_THROW(serve::parseClient(bad.data(), bad.size()),
                   serve::ProtocolError)
          << "reserved byte " << v;
    }
  }
}

TEST(ServeWireFuzz, LanePacksNeverCrossTheWire) {
  // Packs are a server-internal representation; the encoder refuses them.
  std::vector<Value> wave = {Value::pack({Value(1.0), Value(2.0)})};
  EXPECT_THROW(serve::encodePush(1, "A", wave), serve::ProtocolError);
}

TEST(ServeWireFuzz, EveryTruncationParsesOrDiagnoses) {
  for (const Bytes& payload : corpus())
    for (std::size_t len = 0; len <= payload.size(); ++len) {
      Bytes cut(payload.begin(),
                payload.begin() + static_cast<std::ptrdiff_t>(len));
      mustNotCrash(cut, "truncation at " + std::to_string(len));
      // A strict prefix must NOT parse as a client message: the decoder
      // rejects both missing bytes and (for the full length) trailing ones.
      if (len < payload.size()) {
        EXPECT_THROW(serve::parseClient(cut.data(), cut.size()),
                     serve::ProtocolError)
            << "prefix of length " << len << " decoded";
      }
    }
}

TEST(ServeWireFuzz, TrailingGarbageIsRejected) {
  for (const Bytes& payload : corpus()) {
    Bytes padded = payload;
    padded.push_back(0xAA);
    EXPECT_THROW(serve::parseClient(padded.data(), padded.size()),
                 serve::ProtocolError);
    EXPECT_THROW(serve::parseReply(padded.data(), padded.size()),
                 serve::ProtocolError);
  }
}

TEST(ServeWireFuzz, RandomByteMutationsNeverCrash) {
  std::mt19937 rng(20260810);
  for (const Bytes& payload : corpus()) {
    for (int round = 0; round < 300; ++round) {
      Bytes b = payload;
      const int edits = 1 + static_cast<int>(rng() % 4);
      for (int e = 0; e < edits && !b.empty(); ++e) {
        const std::size_t pos = rng() % b.size();
        const auto byte = static_cast<std::uint8_t>(rng() & 0xFF);
        switch (rng() % 3) {
          case 0: b[pos] = byte; break;
          case 1: b.erase(b.begin() + static_cast<std::ptrdiff_t>(pos)); break;
          default:
            b.insert(b.begin() + static_cast<std::ptrdiff_t>(pos), byte);
            break;
        }
      }
      mustNotCrash(b, "mutation round " + std::to_string(round));
    }
  }
}

TEST(ServeWireFuzz, PureNoiseNeverCrashes) {
  std::mt19937 rng(97);
  for (int round = 0; round < 500; ++round) {
    Bytes b(rng() % 64);
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng() & 0xFF);
    mustNotCrash(b, "noise round " + std::to_string(round));
  }
}

TEST(ServeWireFuzz, HostileCountsAreRejectedBeforeAllocation) {
  // Hand-built bodies whose length fields lie: a count times the element
  // size overflows the frame.  Each must be a ProtocolError, not a giant
  // allocation or an out-of-bounds read.
  auto u32 = [](Bytes& b, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) b.push_back((v >> (8 * i)) & 0xFF);
  };
  std::vector<Bytes> hostile;

  {  // Push with a wave count of ~4 billion values in a 20-byte body.
    Bytes b{static_cast<std::uint8_t>(serve::MsgType::Push)};
    u32(b, 1);            // session
    u32(b, 1);            // stream name length
    b.push_back('A');
    u32(b, 0xFFFFFFFFu);  // element count
    hostile.push_back(b);
  }
  {  // Open with a source length far past the end of the frame.
    Bytes b{static_cast<std::uint8_t>(serve::MsgType::Open)};
    u32(b, 1);
    u32(b, 0x00FFFFFFu);  // source length: 16 MiB claimed, 0 present
    hostile.push_back(b);
  }
  {  // Run with a stream-map count lie.
    Bytes b{static_cast<std::uint8_t>(serve::MsgType::Run)};
    u32(b, 0);            // source length 0
    b.push_back(1);       // a WireOptions byte, then garbage
    hostile.push_back(b);
  }
  {  // Unknown message tag.
    hostile.push_back({0x42});
    hostile.push_back({});
  }
  {  // Value with an unknown kind tag / non-0-1 boolean payload.
    Bytes b{static_cast<std::uint8_t>(serve::MsgType::Push)};
    u32(b, 1);
    u32(b, 1);
    b.push_back('A');
    u32(b, 1);     // one value
    b.push_back(9);  // kind tag 9: no such ValueKind on the wire
    for (int i = 0; i < 8; ++i) b.push_back(0);
    hostile.push_back(b);
    b[b.size() - 9] = 0;  // kind bool...
    b[b.size() - 8] = 2;  // ...with payload 2
    hostile.push_back(b);
  }
  for (const Bytes& b : hostile) {
    EXPECT_THROW(serve::parseClient(b.data(), b.size()), serve::ProtocolError);
    mustNotCrash(b, "hostile frame");
  }
}

TEST(ServeWireFuzz, FramingRejectsHostileLengthAndMidFrameEof) {
  // A length prefix over kMaxFrame must be refused before allocation.
  {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::uint32_t huge = serve::kMaxFrame + 1;
    ASSERT_EQ(::write(fds[1], &huge, 4), 4);
    ::close(fds[1]);
    EXPECT_THROW(serve::readFrame(fds[0]), serve::ProtocolError);
    ::close(fds[0]);
  }
  // EOF in the middle of a frame body is a protocol error, not a hang.
  {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::uint32_t len = 100;
    ASSERT_EQ(::write(fds[1], &len, 4), 4);
    ASSERT_EQ(::write(fds[1], "abc", 3), 3);
    ::close(fds[1]);
    EXPECT_THROW(serve::readFrame(fds[0]), serve::ProtocolError);
    ::close(fds[0]);
  }
  // Clean EOF at a frame boundary is nullopt — the shutdown path.
  {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ::close(fds[1]);
    EXPECT_EQ(serve::readFrame(fds[0]), std::nullopt);
    ::close(fds[0]);
  }
  // A full frame roundtrips through the fd layer.
  {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const Bytes payload = serve::encodePing();
    serve::writeFrame(fds[1], payload);
    ::close(fds[1]);
    const auto frame = serve::readFrame(fds[0]);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(*frame, payload);
    EXPECT_EQ(serve::readFrame(fds[0]), std::nullopt);
    ::close(fds[0]);
  }
}

}  // namespace
}  // namespace valpipe

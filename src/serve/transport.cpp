#include "serve/transport.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <map>
#include <system_error>
#include <thread>

namespace valpipe::serve {

namespace {

[[noreturn]] void throwErrno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// SIGPIPE would kill the process when a client vanishes mid-write; writes
/// must fail with EPIPE instead.  Idempotent, installed on first use.
void ignoreSigpipe() {
  static const bool once = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)once;
}

std::uint8_t statusByte(Status s) { return static_cast<std::uint8_t>(s); }

ReplyMsg errorReply(std::uint32_t session, Status st, std::string why,
                    std::int64_t retryAfterMillis = 0) {
  ReplyMsg r;
  r.type = MsgType::Error;
  r.session = session;
  r.status = statusByte(st);
  r.error = std::move(why);
  r.retryAfterMillis = retryAfterMillis;
  return r;
}

}  // namespace

bool serveConnection(Server& server, int inFd, int outFd) {
  ignoreSigpipe();
  // Client-numbered sessions of this connection; cancelled wholesale when
  // the connection ends so a vanished client frees its admission slots.
  std::map<std::uint32_t, std::shared_ptr<Session>> sessions;
  bool shutdownRequested = false;

  try {
    for (;;) {
      std::optional<std::vector<std::uint8_t>> frame = readFrame(inFd);
      if (!frame) break;  // clean EOF
      ClientMsg msg;
      try {
        msg = parseClient(frame->data(), frame->size());
      } catch (const ProtocolError& e) {
        writeFrame(outFd,
                   encodeReply(errorReply(0, Status::BadRequest, e.what())));
        break;  // a client this confused gets disconnected
      }

      switch (msg.type) {
        case MsgType::Ping: {
          ReplyMsg r;
          r.type = MsgType::Pong;
          writeFrame(outFd, encodeReply(r));
          break;
        }
        case MsgType::Shutdown: {
          ReplyMsg r;
          r.type = MsgType::Ack;
          writeFrame(outFd, encodeReply(r));
          shutdownRequested = true;
          break;
        }
        case MsgType::Open: {
          if (sessions.count(msg.session)) {
            writeFrame(outFd, encodeReply(errorReply(
                                  msg.session, Status::BadRequest,
                                  "session id already open")));
            break;
          }
          Response why;
          std::shared_ptr<Session> s =
              server.open(msg.source, msg.options.compileOptions(),
                          msg.options.sessionOptions(), &why);
          if (!s) {
            writeFrame(outFd,
                       encodeReply(errorReply(msg.session, why.status,
                                              why.error,
                                              why.retryAfterMillis)));
            break;
          }
          sessions.emplace(msg.session, std::move(s));
          ReplyMsg r;
          r.type = MsgType::Opened;
          r.session = msg.session;
          writeFrame(outFd, encodeReply(r));
          break;
        }
        case MsgType::Push:
        case MsgType::CloseInputs:
        case MsgType::Pull: {
          auto it = sessions.find(msg.session);
          if (it == sessions.end()) {
            writeFrame(outFd, encodeReply(errorReply(
                                  msg.session, Status::BadRequest,
                                  "no such session")));
            break;
          }
          Session& s = *it->second;
          if (msg.type == MsgType::Push) {
            if (s.push(msg.stream, std::move(msg.wave))) {
              ReplyMsg r;
              r.type = MsgType::Ack;
              r.session = msg.session;
              writeFrame(outFd, encodeReply(r));
            } else {
              const Response resp = s.finish();
              writeFrame(outFd,
                         encodeReply(errorReply(msg.session, resp.status,
                                                resp.error,
                                                resp.retryAfterMillis)));
              sessions.erase(it);
            }
          } else if (msg.type == MsgType::CloseInputs) {
            s.closeInputs();
            ReplyMsg r;
            r.type = MsgType::Ack;
            r.session = msg.session;
            writeFrame(outFd, encodeReply(r));
          } else {  // Pull
            std::optional<std::vector<Value>> wave = s.pull();
            if (!wave) {
              const Response resp = s.finish();
              if (!resp.ok()) {
                writeFrame(outFd,
                           encodeReply(errorReply(msg.session, resp.status,
                                                  resp.error,
                                                  resp.retryAfterMillis)));
                sessions.erase(it);
                break;
              }
            }
            ReplyMsg r;
            r.type = MsgType::OutputChunk;
            r.session = msg.session;
            r.hasWave = wave.has_value();
            if (wave) r.wave = std::move(*wave);
            writeFrame(outFd, encodeReply(r));
            if (!r.hasWave) sessions.erase(it);  // stream finished
          }
          break;
        }
        case MsgType::Run: {
          Response resp =
              server
                  .submit(msg.source, msg.options.compileOptions(),
                          std::move(msg.inputs), msg.options.sessionOptions())
                  .get();
          ReplyMsg r;
          r.type = MsgType::RunResult;
          r.status = statusByte(resp.status);
          r.error = resp.error;
          r.outputs = std::move(resp.outputs);
          r.cycles = resp.stats.cycles;
          r.firings = resp.stats.firings;
          r.maxLanes = static_cast<std::uint32_t>(resp.stats.maxLanes);
          r.latencyMicros = resp.stats.latencyMicros;
          r.cacheHit = resp.stats.cacheHit;
          r.attempts = static_cast<std::uint32_t>(resp.stats.attempts);
          r.retryAfterMillis = resp.retryAfterMillis;
          writeFrame(outFd, encodeReply(r));
          break;
        }
        default:
          writeFrame(outFd, encodeReply(errorReply(
                                0, Status::BadRequest, "not a request")));
          break;
      }
      if (shutdownRequested) break;
    }
  } catch (const ProtocolError&) {
    // Hostile length prefix or mid-frame EOF: nothing sane to reply to.
  } catch (const std::system_error&) {
    // Client went away mid-write; cancellation below is the cleanup.
  }

  for (auto& [id, s] : sessions) s->cancel();
  return shutdownRequested;
}

// ---------------------------------------------------------------------------
// Listener

Listener::Listener(Server& server, std::string path)
    : server_(server), path_(std::move(path)) {
  ignoreSigpipe();
  if (path_.size() >= sizeof(sockaddr_un{}.sun_path))
    throw std::system_error(ENAMETOOLONG, std::generic_category(), "path");
  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd_ < 0) throwErrno("socket");
  ::unlink(path_.c_str());  // stale socket from a previous run
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
    throwErrno("bind");
  if (::listen(listenFd_, 64) < 0) throwErrno("listen");
}

Listener::~Listener() {
  stop();
  if (listenFd_ >= 0) ::close(listenFd_);
  ::unlink(path_.c_str());
}

void Listener::stop() {
  if (stopRequested_.exchange(true)) return;
  // Shut the listening socket down so a blocked accept() returns.
  if (listenFd_ >= 0) ::shutdown(listenFd_, SHUT_RDWR);
}

void Listener::run() {
  acceptLoop();
  std::unique_lock<std::mutex> lk(mu_);
  idle_.wait(lk, [&] { return live_ == 0; });
}

void Listener::acceptLoop() {
  while (!stopRequested_.load()) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (stop()) or unrecoverable
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++live_;
    }
    // Detached, so the thread's stack goes back when its connection ends,
    // not when run() returns.  The thread touches nothing of this Listener
    // after its last unlock, so run() may return once the count is 0.
    std::thread([this, fd] {
      const bool shutdownRequested = serveConnection(server_, fd, fd);
      ::close(fd);
      if (shutdownRequested) stop();
      std::lock_guard<std::mutex> lk(mu_);
      if (--live_ == 0) idle_.notify_all();
    }).detach();
  }
}

// ---------------------------------------------------------------------------
// Client helpers

int connectTo(const std::string& path, int retries) {
  ignoreSigpipe();
  if (path.size() >= sizeof(sockaddr_un{}.sun_path))
    throw std::system_error(ENAMETOOLONG, std::generic_category(), "path");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  for (int attempt = 0;; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throwErrno("socket");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      return fd;
    const int err = errno;
    ::close(fd);
    if (attempt >= retries) {
      errno = err;
      throwErrno("connect");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

ReplyMsg requestRun(int fd, const std::string& source, const WireOptions& o,
                    const run::StreamMap& inputs) {
  writeFrame(fd, encodeRun(source, o, inputs));
  std::optional<std::vector<std::uint8_t>> frame = readFrame(fd);
  if (!frame) throw ProtocolError("connection closed before RunResult");
  ReplyMsg r = parseReply(frame->data(), frame->size());
  if (r.type != MsgType::RunResult && r.type != MsgType::Error)
    throw ProtocolError("expected RunResult");
  return r;
}

void requestShutdown(int fd) {
  writeFrame(fd, encodeShutdown());
  std::optional<std::vector<std::uint8_t>> frame = readFrame(fd);
  if (!frame) return;  // server closed on us — good enough
  (void)parseReply(frame->data(), frame->size());
}

}  // namespace valpipe::serve

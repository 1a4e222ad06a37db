// Socket/stdio transport of valpipe-serve.
//
// A Listener accepts connections on an AF_UNIX socket and runs one service
// thread per live connection; the thread ends, and its stack is released,
// when its connection does.  serveConnection() speaks the wire protocol over
// any fd pair, so the same loop also serves a stdio pipe (fd 0/1) for
// harnesses that spawn the server as a child process.  Each connection owns
// a map of client-numbered sessions; when the connection drops, its
// unfinished sessions are cancelled so a vanished client cannot pin
// admission slots.
//
// Flow control composes with the core: Session::push blocks under
// backpressure, which blocks this connection's service thread, which stops
// reading from the socket, which fills the kernel buffer, which blocks the
// client — wave-granular backpressure end to end, with no protocol-level
// window to get wrong.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>

#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace valpipe::serve {

/// Serves one already-open connection (reads requests from `inFd`, writes
/// replies to `outFd`) until EOF, a protocol violation, or a Shutdown
/// request.  Returns true when the client asked for server shutdown.
bool serveConnection(Server& server, int inFd, int outFd);

/// AF_UNIX listener: accept loop + one service thread per live connection.
class Listener {
 public:
  /// Binds `path` (unlinking any stale socket file first) and starts the
  /// accept loop.  Throws std::system_error on bind/listen failure.
  Listener(Server& server, std::string path);
  ~Listener();

  /// Blocks until a client requests Shutdown (or stop() is called), then
  /// stops accepting and returns once every connection thread has ended.
  void run();

  /// Asks the accept loop to exit (callable from a signal-ish context is NOT
  /// supported; call from another thread).
  void stop();

 private:
  void acceptLoop();

  Server& server_;
  std::string path_;
  int listenFd_ = -1;
  std::atomic<bool> stopRequested_{false};
  std::mutex mu_;  ///< guards live_
  std::condition_variable idle_;
  int live_ = 0;   ///< connection threads still serving
};

// --- client-side helpers ---------------------------------------------------

/// Connects to a serve socket.  Returns the fd; throws std::system_error on
/// failure (retries briefly so a client can race server startup).
int connectTo(const std::string& path, int retries = 50);

/// One-shot run over an open connection.  Throws ProtocolError on a
/// malformed reply.
ReplyMsg requestRun(int fd, const std::string& source, const WireOptions& o,
                    const run::StreamMap& inputs);

/// Asks the server to shut down; returns once the Ack arrives.
void requestShutdown(int fd);

}  // namespace valpipe::serve

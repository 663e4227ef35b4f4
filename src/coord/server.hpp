// Socket front-end for the Coordinator: a single-threaded poll loop
// over a Unix-domain or TCP stream socket.
//
// One thread, no locks: every request line is handled to completion
// before the next is read, so the Coordinator needs no internal
// synchronization and request interleaving is a total order (which is
// what makes the STATS counters exact).  Between polls the loop calls
// Coordinator::tick() with steady-clock time -- liveness (and with it
// dead-worker reclaim) advances even when no requests arrive.
//
// Transports share everything above the fd: the address string decides
// (proto.hpp parse_address).  A Unix socket is still the right default
// for one box or one shared filesystem (hermetic CI smokes); TCP is for
// the multi-box sweeps where workers live on other machines.
//
// Slow-worker isolation: all connection fds are non-blocking.  Replies
// queue in a per-connection write buffer drained on POLLOUT, capped at
// max_write_buffer (a reader that stops reading gets closed, not
// waited on), and a connection sitting mid-request or mid-reply with no
// socket progress for io_timeout_ms is dropped.  Idle-but-healthy
// connections (no partial frame either way) are never timed out -- the
// liveness layer owns worker health, the transport only owns frames.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "coord/coordinator.hpp"

namespace kop::coord {

struct ServerOptions {
  /// Where to listen: a unix socket path or host:port (parse_address).
  /// TCP port 0 binds an ephemeral port; bound_address() reports it.
  std::string address;
  /// Poll timeout between ticks.
  int poll_ms = 100;
  /// Exit the loop once the sweep is drained (CI smoke mode).  The
  /// loop still answers requests until the last connection closes.
  bool exit_when_drained = false;
  /// Drop a connection whose partial request or undrained reply makes
  /// no socket progress for this long.  <= 0 disables.
  std::int64_t io_timeout_ms = 30000;
  /// Close a connection once its pending replies exceed this (a slow or
  /// dead reader must not grow the heap or stall the loop).
  std::size_t max_write_buffer = 4u << 20;
};

class Server {
 public:
  /// Binds and listens; throws std::runtime_error on socket errors.
  Server(Coordinator* coord, ServerOptions opt);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serve until SHUTDOWN is received, stop() is called from another
  /// thread, or (with exit_when_drained) the sweep completes.
  void run();

  /// Ask run() to return after its current poll round.  Safe from
  /// another thread and from a signal handler (a lock-free atomic).
  void stop() { stop_.store(true); }

  /// The address actually bound: the unix path, or host:port with the
  /// kernel-assigned port substituted when the caller asked for port 0.
  const std::string& bound_address() const { return bound_address_; }

  /// Milliseconds on the steady clock (the server's time base).
  static std::int64_t now_ms();

 private:
  struct Conn {
    std::string rbuf;               // partial request line(s)
    std::string wbuf;               // undrained reply bytes
    std::int64_t last_progress_ms = 0;  // last successful read/write
  };

  void bind_unix(const std::string& path);
  void bind_tcp(const std::string& host, int port);
  /// Run every complete line in `conn.rbuf` through the coordinator and
  /// queue the replies.  False when the connection must close.
  bool process_lines(Conn& conn, std::int64_t now);
  /// Drain as much of `conn.wbuf` as the socket accepts right now.
  /// False on a broken connection.
  bool flush(int fd, Conn& conn, std::int64_t now);

  Coordinator* coord_;
  ServerOptions opt_;
  std::string bound_address_;
  std::string unlink_path_;  // non-empty: unix socket file to remove
  int listen_fd_ = -1;
  std::map<int, Conn> conns_;
  std::atomic<bool> stop_{false};
};

}  // namespace kop::coord

// Client side of the kop-sweep line protocol: one blocking connection,
// request/response framing, and typed wrappers for the worker verbs.
//
// The constructor takes a coordinator address in either form -- a unix
// socket path or host:port (proto.hpp parse_address) -- so every flag
// that accepts `--coord <socket>` transparently accepts `--coord
// host:port` too.
//
// Thread-safe: a JobRunner pool and its heartbeat thread share one
// Client, so request() serializes on an internal mutex (the protocol is
// strictly one response per request line, making this sound).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "coord/proto.hpp"

namespace kop::coord {

class Client {
 public:
  /// Connects to a unix socket path or host:port; throws
  /// std::runtime_error when the daemon is not there.
  explicit Client(std::string address);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one request line, return the response line (without the
  /// terminator).  For HIT responses the body is appended after a
  /// newline, exactly as the server framed it.  Throws on I/O errors.
  std::string request(const std::string& line);

  // --- typed wrappers --------------------------------------------------

  struct HelloReply {
    std::uint64_t incarnation = 0;
    std::int64_t suspect_ms = 0;
    std::int64_t dead_ms = 0;
  };
  HelloReply hello(const std::string& worker);

  struct Grant {
    bool granted = false;
    /// Response status when not granted: IDLE/DRAINED/TAKEN/COMPLETE/...
    std::string status;
    std::uint64_t point = 0;
    std::uint64_t lease_id = 0;
    std::string payload;  // "-" normalized to empty
  };
  Grant next(const std::string& worker);
  Grant lease(const std::string& worker, std::uint64_t hash,
              const std::string& entry = "");

  /// True when the completion was recorded (OK or OK-STALE).
  bool done(const std::string& worker, std::uint64_t lease_id,
            std::uint64_t hash);
  void bye(const std::string& worker);

  struct GetReply {
    std::string status;  // HIT / COMPLETE / PENDING / UNKNOWN
    std::string detail;  // PENDING: queued|leased
    std::string doc;     // HIT: the entry document
  };
  GetReply get(std::uint64_t hash);

  /// Batched GET: every hash answered in request order, one round trip
  /// per kMgetMaxHashes-sized wire batch instead of one per hash.
  std::vector<GetReply> mget(const std::vector<std::uint64_t>& hashes);

  std::string stats();
  void shutdown();

  const std::string& socket_path() const { return path_; }

  /// Request lines sent so far (an MGET batch counts once).  Tests pin
  /// the ~n× round-trip saving of mget() against this.
  std::uint64_t round_trips() const;

 private:
  std::string read_line_locked();
  std::string read_bytes_locked(std::size_t n);
  /// Read one GET-shaped sub-response (header line, optional counted
  /// body + terminator line).
  GetReply read_get_reply_locked();

  std::string path_;
  int fd_ = -1;
  std::string rxbuf_;
  std::uint64_t round_trips_ = 0;
  mutable std::mutex mu_;
};

}  // namespace kop::coord

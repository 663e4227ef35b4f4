// Lease-aware dispatch for --coord: ask a kop_sweepd daemon for a
// *lease* on each point before simulating it.  The session keeps every
// outstanding lease alive from a background heartbeat thread (renewing
// at TTL/3, piggybacking a PING when it holds nothing so liveness never
// decays to Suspect mid-sweep) and reports completions so the
// coordinator's manifest drains.  If this process dies instead, the
// coordinator reclaims its leases at TTL expiry or on the dead-worker
// transition and re-queues the points -- no operator cleanup.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/jobs/point.hpp"

namespace kop::coord {
class Client;
}

namespace kop::harness::jobs {

class LeaseSession {
 public:
  /// Connects to the daemon socket and performs the HELLO handshake.
  /// Throws std::runtime_error when the daemon is unreachable.  The
  /// worker id defaults to "<hostname>:<pid>:<n>", unique per session:
  /// the coordinator reclaims leases by worker id on BYE, so sessions
  /// sharing one id would re-queue each other's live leases.
  explicit LeaseSession(const std::string& socket_path,
                        std::string worker = "");
  ~LeaseSession();

  LeaseSession(const LeaseSession&) = delete;
  LeaseSession& operator=(const LeaseSession&) = delete;

  /// Batched cache probe (MGET): ask the coordinator about every point
  /// in one round trip per 64 instead of one LEASE per point.  Hashes
  /// the daemon reports served or complete are remembered, and
  /// try_acquire on them returns false without touching the socket.
  /// Sound because completion is terminal: a point HIT/COMPLETE at
  /// prefetch time can never need re-running.  Returns how many points
  /// were already complete.
  std::size_t prefetch(const std::vector<PointSpec>& specs);

  /// Lease `spec` from the coordinator.  False when another worker
  /// holds it or it is already complete -- the caller skips the point.
  bool try_acquire(const PointSpec& spec);

  /// Report the point done (entry stored in the shared cache).  No-op
  /// when this session does not hold its lease.
  void complete(const PointSpec& spec);

  const std::string& worker() const { return worker_; }

 private:
  void heartbeat_loop();

  std::string worker_;
  std::unique_ptr<coord::Client> client_;
  std::int64_t ttl_ms_ = 5000;

  std::mutex mu_;
  std::map<std::uint64_t, std::uint64_t> held_;  // point hash -> lease id
  std::set<std::uint64_t> known_complete_;       // from prefetch()
  bool stop_ = false;
  std::condition_variable stop_cv_;
  std::thread heartbeat_;
};

}  // namespace kop::harness::jobs

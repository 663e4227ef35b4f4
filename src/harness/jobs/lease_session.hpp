// Lease-aware dispatch for --coord: ask a kop_sweepd daemon for a
// *lease* on each point before simulating it.  A lease lives as long as
// its holder, so the session keeps itself alive: a background thread
// PINGs every suspect/3 ms (at least 50 ms), whether or not it holds a
// lease, and a healthy worker never decays to Suspect however long one
// point simulates.  Completions are reported so the coordinator's
// manifest drains.  If this process dies instead, its heartbeat stops,
// the coordinator declares it dead after dead=<ms> of silence and
// re-queues its points -- no operator cleanup.  A session that was
// declared dead while still running (stopped, starved) says HELLO again
// as a fresh incarnation and carries on.
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

#include "coord/client.hpp"
#include "harness/jobs/point.hpp"

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
  /// Stops the heartbeat and says BYE, which re-queues any lease still
  /// held.
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

  /// Lease the next queued point (NEXT), for a coordinator-fed sweep.
  /// A grant is held until complete() reports its point; otherwise the
  /// status says why not (IDLE, DRAINED, ...).
  coord::Client::Grant next();

  /// Report the point done (entry stored in the shared cache).  No-op
  /// when this session does not hold its lease.
  void complete(const PointSpec& spec);

  const std::string& worker() const { return worker_; }

 private:
  /// Send a lease request; when the coordinator no longer knows this
  /// incarnation (DEAD, NOHELLO), say HELLO again and send it once more.
  template <typename Send>
  coord::Client::Grant ask(Send send);
  void heartbeat_loop(std::int64_t interval_ms);

  std::string worker_;
  std::unique_ptr<coord::Client> client_;

  std::mutex mu_;
  std::map<std::uint64_t, std::uint64_t> held_;  // point hash -> lease id
  std::set<std::uint64_t> known_complete_;       // from prefetch()
  bool stop_ = false;
  std::condition_variable stop_cv_;
  std::thread heartbeat_;
};

}  // namespace kop::harness::jobs

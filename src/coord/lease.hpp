// Point leases: exclusive, expiring ownership of one sweep point.
//
// The granting coordinator remembers who holds each point and until
// when, renewals push the expiry forward, and an expired or orphaned
// (dead-worker) lease is *reclaimed* -- the point goes back on the
// queue for the next worker, exactly once.  A crashed worker never
// strands its points.
//
// The table is pure bookkeeping over injected timestamps: no clock, no
// I/O, no threads.  Exactly-once dispatch is the invariant the
// propcheck harness checks against this code under random crash
// schedules (exactly-once-dispatch).
//
// Lifecycle of one point:
//
//   Queued ──grant──► Leased ──complete──► Complete   (terminal)
//     ▲                  │
//     └────reclaim───────┘   (TTL expired, or holder declared dead)
//
// Completion is by point, never by lease: the coordinator accepts a
// completion from a *stale* lease holder as long as the point is still
// incomplete -- the result already exists (deterministic simulation,
// content-addressed entry), so dropping it would only force a redundant
// re-run.  A completion for an already-complete point changes nothing.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace kop::coord {

/// What the coordinator knows about one sweep point.  The coordinator
/// never materializes a PointSpec -- it deals in the point's content
/// hash, the cache entry file the result will occupy, and an opaque
/// payload (a propcheck replay token) a generic worker can execute.
struct PointInfo {
  std::uint64_t hash = 0;   // PointSpec::content_hash()
  std::string entry;        // "kop-<cache-key>.json"
  std::string payload;      // replay token; empty: worker-enumerated
  std::string label;        // human label for logs
};

enum class PointState { kQueued, kLeased, kComplete };

struct Lease {
  std::uint64_t id = 0;
  std::uint64_t point = 0;        // PointInfo::hash
  std::string worker;
  std::int64_t expires_ms = 0;    // exclusive: expired once now >= expires
};

enum class GrantOutcome { kGranted, kTaken, kComplete, kUnknown, kIdle };
enum class RenewOutcome { kOk, kExpired, kUnknown };

class LeaseTable {
 public:
  explicit LeaseTable(std::int64_t ttl_ms = 5000);

  /// Register a sweep point (idempotent by hash; first registration
  /// wins).  Returns true when the point is new.
  bool add_point(PointInfo info);

  /// Mark a point complete, dropping its live lease if it has one (a
  /// DONE, a warm cache entry, a replayed D record).  False when the
  /// hash is unknown.
  bool mark_complete(std::uint64_t hash);

  /// Grant the next queued point (FIFO requeue order) to `worker`.
  /// Outcome kGranted fills *lease; kIdle means nothing is queued right
  /// now (points may still be leased out and come back via reclaim).
  GrantOutcome grant_next(const std::string& worker, std::int64_t now_ms,
                          Lease* lease);

  /// Grant one specific point (worker-enumerated dispatch, as the
  /// JobRunner's --coord mode does).  kTaken: live lease held by
  /// someone; kComplete: already done; kUnknown: never registered.
  GrantOutcome grant(std::uint64_t hash, const std::string& worker,
                     std::int64_t now_ms, Lease* lease);

  /// Push the lease expiry to now + TTL.  kExpired covers both "the
  /// lease timed out and was reclaimed" and "it was reclaimed when the
  /// holder died" -- either way the renewal loses.
  RenewOutcome renew(std::uint64_t lease_id, std::int64_t now_ms);

  /// Reclaim every lease whose expiry has passed; their points go back
  /// on the queue.  Returns the reclaimed point hashes.
  std::vector<std::uint64_t> reclaim_expired(std::int64_t now_ms);

  /// Reclaim every live lease held by `worker` (declared dead or said
  /// BYE).  Returns the requeued point hashes.
  std::vector<std::uint64_t> reclaim_worker(const std::string& worker);

  // --- queries ---------------------------------------------------------
  PointState point_state(std::uint64_t hash) const;
  const PointInfo* point_info(std::uint64_t hash) const;
  /// The live lease with this id, or nullptr (reclaimed/completed ids
  /// are gone -- the Coordinator resolves those by point hash).
  const Lease* lease_by_id(std::uint64_t id) const;
  std::size_t total() const { return points_.size(); }
  std::size_t queued() const { return queue_.size(); }
  std::size_t leased() const { return leases_.size(); }
  std::size_t complete() const { return complete_count_; }
  bool drained() const { return complete_count_ == points_.size(); }
  std::int64_t ttl_ms() const { return ttl_ms_; }
  /// Every registered point hash, ascending (manifest iteration order).
  std::vector<std::uint64_t> point_hashes() const;
  /// Queued point hashes in grant (FIFO) order.
  std::vector<std::uint64_t> queued_hashes() const;
  /// Canonical multi-line rendering of the whole table -- point states
  /// and identities, queue order, live leases, id counter.  Two tables
  /// that render the same dispatch identically; journal-replay tests
  /// compare this.
  std::string debug_dump() const;

 private:
  Lease* issue(std::uint64_t hash, const std::string& worker,
               std::int64_t now_ms);
  /// Requeue every live lease `reclaim(lease)` selects; returns their
  /// point hashes in lease-id order.
  template <typename Pred>
  std::vector<std::uint64_t> reclaim_if(Pred reclaim);

  struct PointRec {
    PointInfo info;
    PointState state = PointState::kQueued;
    std::uint64_t lease_id = 0;  // valid while kLeased
  };

  std::int64_t ttl_ms_;
  std::uint64_t next_lease_id_ = 1;
  std::map<std::uint64_t, PointRec> points_;
  std::map<std::uint64_t, Lease> leases_;  // by lease id, live only
  std::deque<std::uint64_t> queue_;        // queued point hashes, FIFO
  std::size_t complete_count_ = 0;
};

}  // namespace kop::coord

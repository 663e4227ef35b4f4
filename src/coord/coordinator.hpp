// The sweep coordinator: lease-based dispatch + cache-serving front-end.
//
// One Coordinator owns one sweep execution: a manifest of points
// (content hash, cache entry name, optional replay-token payload), the
// LeaseTable that hands them out, and the LivenessTracker that watches
// the workers holding them.  It speaks the proto.hpp line protocol --
// handle_line() maps one request line to one response -- and is
// deliberately clockless and socketless: callers inject `now_ms`, which
// makes every dispatch schedule (including crash schedules) replayable
// in tests and in the propcheck exactly-once-dispatch invariant.  The
// socket front-end (server.hpp) is a thin shell around this class.
//
// Serving path: GET <hash> answers straight from the result cache via
// an injected probe (the daemon wires jobs::ResultCache in, keeping
// this layer below the harness).  A hit streams the validated entry
// document -- the "millions of users" path costs one lookup and zero
// simulation.  A miss on a known point reports its dispatch state
// (queued/leased); the sweep still completes it exactly once.
//
// Exactly-once: completion is recorded per *point*, never per lease.
// Late completions from expired leases are accepted while the point is
// incomplete (the simulation is deterministic, the entry is
// content-addressed -- the result is the result) and counted as
// `completions_stale_lease`; completions for already-complete points
// change nothing (`completions_dup`).  A DONE completes by lease id
// only when that lease is live on the hash the DONE names; any other
// DONE resolves by the named point, so a lease id reused after a
// journal replay can never complete the wrong point.  kop_merge's
// coverage manifest is the end-to-end proof: every expected entry
// present exactly once.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "coord/journal.hpp"
#include "coord/lease.hpp"
#include "coord/liveness.hpp"
#include "coord/proto.hpp"
#include "telemetry/counterset.hpp"

namespace kop::coord {

struct CoordinatorOptions {
  LivenessOptions liveness;
  std::int64_t lease_ttl_ms = 5000;
};

/// Injected cache lookup: return true and fill *doc with the validated
/// entry document when `hash` has a servable result.  The daemon backs
/// this with jobs::ResultCache (fingerprint-checked decode + re-encode);
/// tests back it with a map.  May be empty (no serving path).
using CacheProbe =
    std::function<bool(std::uint64_t hash, std::string* doc)>;

class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions opt = {}, CacheProbe probe = {});

  /// Register one sweep point (idempotent by hash).
  void add_point(PointInfo info);

  /// Probe the cache for every registered-but-incomplete point and mark
  /// the hits complete.  Called at startup (and after a restart: leases
  /// are memory-only, so a restarted coordinator re-queues exactly the
  /// points whose entries are not in the cache -- in-flight work is
  /// re-dispatched, finished work is not).  Returns how many points
  /// were completed from the cache.
  std::size_t sync_with_cache();

  /// Attach the crash journal (non-owning; may be null to detach).
  /// Every registration and completion from here on is appended;
  /// tick() group-commits.  Attach *after* recover_from_journal --
  /// recovery must not re-journal what it replays.
  void attach_journal(Journal* journal);

  /// Replay a journal file into this (fresh) coordinator.  On success
  /// the table is the restart table: every registered point, the
  /// completed ones complete, the rest queued in registration order,
  /// no leases.  False on corruption (*error names the offending line).
  bool recover_from_journal(const std::string& path, ReplayStats* stats,
                            std::string* error);

  /// The lease table rendered for state-equality checks (tests, the
  /// journal-replay propcheck invariant).
  std::string debug_state() const { return table_.debug_dump(); }

  /// One request line in, one response out (no trailing newline except
  /// inside HIT bodies; the server appends the line terminator).
  std::string handle_line(const std::string& line, std::int64_t now_ms);

  /// Periodic maintenance: liveness transitions, dead-worker reclaim,
  /// lease-expiry reclaim.  The server calls this between polls; tests
  /// call it with synthetic time.
  void tick(std::int64_t now_ms);

  /// True once every registered point is complete.
  bool drained() const { return table_.total() > 0 && table_.drained(); }
  /// SHUTDOWN was received (the server's exit signal).
  bool shutdown_requested() const { return shutdown_; }

  /// One-line JSON: point totals, worker states, and every counter.
  std::string stats_json() const;

  const telemetry::CounterSet& counters() const { return counters_; }
  const LeaseTable& leases() const { return table_; }
  const LivenessTracker& liveness() const { return liveness_; }

 private:
  std::string on_hello(const Request& r, std::int64_t now_ms);
  std::string on_next(const Request& r, std::int64_t now_ms);
  std::string on_lease(const Request& r, std::int64_t now_ms);
  std::string on_renew(const Request& r, std::int64_t now_ms);
  std::string on_done(const Request& r, std::int64_t now_ms);
  std::string on_get(const Request& r, std::int64_t now_ms);
  std::string on_mget(const Request& r, std::int64_t now_ms);
  /// One GET-shaped sub-response for `hash` (shared by GET and MGET).
  std::string serve_one(std::uint64_t hash);
  /// Heartbeat gate shared by worker-bearing verbs: returns false and
  /// fills *reply (NOHELLO / DEAD) when the request must be rejected.
  bool admit(const Request& r, std::int64_t now_ms, std::string* reply);
  /// mark_complete + journal, only when the state actually changed.
  void complete_point(std::uint64_t hash);
  bool apply_record(const JournalRecord& rec);

  CacheProbe probe_;
  LeaseTable table_;
  LivenessTracker liveness_;
  telemetry::CounterSet counters_;
  Journal* journal_ = nullptr;
  bool shutdown_ = false;
};

}  // namespace kop::coord

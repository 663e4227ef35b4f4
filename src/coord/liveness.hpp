// Worker liveness for the sweep coordinator.
//
// Every worker the coordinator has ever heard from sits in one of four
// states, driven only by heartbeat arrival times (any request carrying
// the worker's id counts as a heartbeat):
//
//   Unknown ──HELLO──► Alive ──silence > suspect_after──► Suspect
//                        ▲                                   │
//                        └────────late heartbeat─────────────┤
//                                                            │
//                              silence > dead_after ─────────► Dead
//
// Those are the only legal transitions (ek-kor2-style heartbeat state
// machine).  Dead is terminal *per incarnation*: a worker that comes
// back after being declared dead must HELLO again, which registers a
// fresh incarnation -- its stale leases were already reclaimed when it
// died, so the late twin can never double-dispatch a point.
//
// The tracker never reads a clock; callers pass `now_ms` (the socket
// server passes steady-clock time, tests pass synthetic time), so every
// transition sequence is replayable.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace kop::coord {

enum class WorkerState { kUnknown, kAlive, kSuspect, kDead };

const char* worker_state_name(WorkerState s);

struct LivenessOptions {
  /// Alive -> Suspect after this much heartbeat silence.
  std::int64_t suspect_after_ms = 3000;
  /// Suspect -> Dead after this much total silence (> suspect_after_ms).
  /// A dead worker's leases are reclaimed, so this is also how long a
  /// crashed worker's points wait before they are queued again.
  std::int64_t dead_after_ms = 5000;
};

class LivenessTracker {
 public:
  explicit LivenessTracker(LivenessOptions opt = {});

  /// HELLO: register the worker (or a fresh incarnation of a dead one).
  /// Returns the incarnation number, starting at 1.
  std::uint64_t hello(const std::string& worker, std::int64_t now_ms);

  /// A request from `worker` arrived.  Refreshes last-seen and applies
  /// Suspect -> Alive recovery.  Returns the resulting state:
  /// kUnknown means the worker never sent HELLO (caller should reject),
  /// kDead means this incarnation was already declared dead (caller
  /// should tell the worker to re-HELLO).
  WorkerState heartbeat(const std::string& worker, std::int64_t now_ms);

  /// Apply time-based transitions (Alive -> Suspect -> Dead) as of
  /// `now_ms`.  Returns the workers that died in this step, in name
  /// order -- the caller reclaims their leases.
  std::vector<std::string> advance(std::int64_t now_ms);

  WorkerState state(const std::string& worker) const;

  struct WorkerInfo {
    std::string name;
    WorkerState state = WorkerState::kUnknown;
    std::int64_t last_seen_ms = 0;
    std::uint64_t incarnation = 0;
    std::uint64_t suspects = 0;    // Alive -> Suspect transitions
    std::uint64_t recoveries = 0;  // Suspect -> Alive transitions
  };
  /// All known workers, sorted by name.
  std::vector<WorkerInfo> snapshot() const;

  const LivenessOptions& options() const { return opt_; }

 private:
  LivenessOptions opt_;
  std::map<std::string, WorkerInfo> workers_;
};

}  // namespace kop::coord

// Execution options for the experiment job layer.  Lives in its own
// header (no other harness includes) so both the JobRunner and the
// figure-CLI option parser can share it without an include cycle.
#pragma once

#include <string>

namespace kop::harness::jobs {

struct JobOptions {
  /// Host worker threads; 0 = std::thread::hardware_concurrency().
  int jobs = 0;
  /// On-disk result cache directory; empty = caching disabled.
  std::string cache_dir;
  /// Force cache off even when cache_dir is set (--no-cache).
  bool no_cache = false;
  /// Distributed execution (--coord ADDR, a unix socket path or
  /// host:port): lease each point from a kop_sweepd daemon before
  /// simulating it (lease_session.hpp).  Points leased elsewhere come
  /// back with PointResult::skipped set.  Crashed workers need no
  /// cleanup -- their leases expire and the daemon re-queues the
  /// points.
  std::string coord_socket;

  bool cache_enabled() const { return !cache_dir.empty() && !no_cache; }
  bool coord_enabled() const { return !coord_socket.empty(); }
};

/// Resolved worker count for `n_points` jobs (clamped to [1, n_points]
/// when n_points > 0).
int effective_jobs(const JobOptions& opts, std::size_t n_points);

}  // namespace kop::harness::jobs

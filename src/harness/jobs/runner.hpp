// The execute layer: a host-thread pool that runs experiment points
// concurrently, each on its own sim::Engine.
//
// Guarantees:
//   * results are returned indexed by the input spec order, so callers
//     print tables / JSON artifacts byte-identically at any --jobs N
//   * duplicate specs are simulated once (internal dedup by canonical
//     form) and fanned back out to every requesting slot
//   * a failing point is captured (not thrown from the worker), retried
//     once, and reported in PointResult::{failed,error}
//   * distinct points dispatch longest-expected-first (cost_estimate)
//     so the biggest simulations never anchor the parallel tail
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "harness/jobs/cache.hpp"
#include "harness/jobs/lease_session.hpp"
#include "harness/jobs/options.hpp"
#include "harness/jobs/point.hpp"

namespace kop::harness::jobs {

class JobRunner {
 public:
  explicit JobRunner(JobOptions opts = {});

  /// Run every point (cache -> simulate -> store), returning results in
  /// input order.  Failed points come back with failed=true; callers
  /// that need all results use require_ok().
  std::vector<PointResult> run(const std::vector<PointSpec>& points);

  /// Parallel map for ablation matrices whose jobs are not declarative
  /// points (custom engine setups); same pool, no caching.  Workers
  /// take tasks in vector order.  Each task must only write state owned
  /// by its index.
  void run_tasks(const std::vector<std::function<void()>>& tasks);

  struct Stats {
    std::uint64_t executed = 0;    // points actually simulated
    std::uint64_t cache_hits = 0;
    std::uint64_t retries = 0;
    std::uint64_t failures = 0;    // points failed after the retry
    std::uint64_t skipped = 0;     // coord mode: leased elsewhere or
                                   // already complete
  };
  const Stats& stats() const { return stats_; }
  const JobOptions& options() const { return opts_; }
  /// The attached cache, or nullptr when caching is disabled.
  ResultCache* cache() { return cache_.get(); }

  /// One-line execution summary ("N points: X simulated, Y cached...").
  /// Callers print it to stderr so stdout stays byte-identical across
  /// cold and warm runs.
  std::string summary(std::size_t n_points) const;

 private:
  /// The one admission path: lease -> cache -> simulate (one retry)
  /// -> store -> DONE.
  PointResult execute_one(const PointSpec& spec);
  /// The cache -> simulate (one retry) -> store part of execute_one.
  PointResult load_or_simulate(const PointSpec& spec);

  JobOptions opts_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<LeaseSession> lease_;
  Stats stats_;
  std::mutex stats_mu_;
};

/// Throw std::runtime_error listing every failed point (no-op when all
/// succeeded).
void require_ok(const std::vector<PointSpec>& points,
                const std::vector<PointResult>& results);

}  // namespace kop::harness::jobs

#include "harness/jobs/runner.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <thread>

namespace kop::harness::jobs {

int effective_jobs(const JobOptions& opts, std::size_t n_points) {
  int jobs = opts.jobs;
  if (jobs <= 0) {
    // Respect the affinity mask (containers and batch schedulers often
    // grant fewer CPUs than hardware_concurrency() reports).
#if defined(__linux__)
    cpu_set_t mask;
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
      jobs = CPU_COUNT(&mask);
    }
#endif
    if (jobs <= 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }
  if (n_points > 0) {
    jobs = std::min<std::size_t>(static_cast<std::size_t>(jobs), n_points);
  }
  return std::max(jobs, 1);
}

JobRunner::JobRunner(JobOptions opts) : opts_(std::move(opts)) {
  if (opts_.cache_enabled()) {
    cache_ = std::make_unique<ResultCache>(opts_.cache_dir);
  }
  if (opts_.coord_enabled()) {
    lease_ = std::make_unique<LeaseSession>(opts_.coord_socket);
  }
}

PointResult JobRunner::execute_one(const PointSpec& spec) {
  // A lease makes this worker the point's only executor; it is
  // reclaimable if this worker dies.  Completion is reported after the
  // result is in the cache, so a GET served as COMPLETE can always be
  // answered from disk.  A coordinator that goes away fails the point
  // (require_ok names it) instead of throwing out of a pool thread.
  auto lost_coordinator = [&](const std::exception& e) {
    PointResult failed;
    failed.failed = true;
    failed.error = spec.label() + ": lost the coordinator: " + e.what();
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.failures;
    return failed;
  };
  try {
    if (lease_ != nullptr && !lease_->try_acquire(spec)) {
      PointResult skipped;
      skipped.skipped = true;
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.skipped;
      return skipped;
    }
  } catch (const std::exception& e) {
    return lost_coordinator(e);
  }
  PointResult result = load_or_simulate(spec);
  if (lease_ != nullptr && !result.failed) {
    // Outside the simulate retry: a DONE that fails must not re-run a
    // point that is already stored.
    try {
      lease_->complete(spec);
    } catch (const std::exception& e) {
      return lost_coordinator(e);
    }
  }
  return result;
}

PointResult JobRunner::load_or_simulate(const PointSpec& spec) {
  if (cache_ != nullptr) {
    PointResult cached;
    if (cache_->load(spec, &cached)) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.cache_hits;
      return cached;
    }
  }
  // One retry: the simulation is deterministic, but host-side
  // transients (allocation pressure, a torn cache entry mid-write)
  // deserve a second attempt before the point is declared failed.
  std::string first_error;
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      PointResult result = run_point(spec);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.executed;
        if (attempt > 0) ++stats_.retries;
      }
      // Store before DONE: once the coordinator calls the point
      // complete, the entry must already be on disk for GET to serve.
      if (cache_ != nullptr) cache_->store(spec, result);
      return result;
    } catch (const std::exception& e) {
      if (attempt == 0) {
        first_error = e.what();
      } else {
        PointResult failed;
        failed.failed = true;
        failed.error = spec.label() + ": " + e.what() +
                       (first_error == e.what()
                            ? " (twice)"
                            : " (first attempt: " + first_error + ")");
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.retries;
        ++stats_.failures;
        return failed;
      }
    }
  }
  return {};  // unreachable
}

std::vector<PointResult> JobRunner::run(const std::vector<PointSpec>& points) {
  std::vector<PointResult> results(points.size());
  if (points.empty()) return results;

  // Dedup: simulate each distinct point once, fan results back out.
  std::map<std::string, std::size_t> first_of;
  std::vector<std::size_t> unique_idx;        // indices into `points`
  std::vector<std::size_t> alias(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto [it, inserted] = first_of.try_emplace(points[i].canonical(), i);
    if (inserted) unique_idx.push_back(i);
    alias[i] = it->second;
  }

  // Longest-expected-first dispatch: big points (EPCC kAll at high
  // thread counts) go out first so they don't land on the tail of the
  // parallel schedule.  Results are collated by input index either
  // way, so tables and --json artifacts stay byte-identical to
  // enumeration-order dispatch.  stable_sort keeps enumeration order
  // among equal-cost points.
  std::vector<double> cost(points.size(), 0.0);
  for (std::size_t i : unique_idx) cost[i] = cost_estimate(points[i]);
  std::stable_sort(
      unique_idx.begin(), unique_idx.end(),
      [&cost](std::size_t a, std::size_t b) { return cost[a] > cost[b]; });

  std::vector<std::function<void()>> tasks;
  tasks.reserve(unique_idx.size());
  for (std::size_t i : unique_idx) {
    tasks.push_back([&, i] { results[i] = execute_one(points[i]); });
  }
  run_tasks(tasks);

  for (std::size_t i = 0; i < points.size(); ++i) {
    if (alias[i] != i) results[i] = results[alias[i]];
  }
  return results;
}

void JobRunner::run_tasks(const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  const int jobs = effective_jobs(opts_, tasks.size());
  if (jobs == 1) {
    for (const auto& task : tasks) task();
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < tasks.size(); i = next++) tasks[i]();
    });
  }
  for (auto& t : workers) t.join();
}

std::string JobRunner::summary(std::size_t n_points) const {
  std::string out = std::to_string(n_points) + " points: " +
                    std::to_string(stats_.executed) + " simulated";
  if (cache_ != nullptr) {
    out += ", " + std::to_string(stats_.cache_hits) + " cached";
    const auto cs = cache_->stats();
    if (cs.corrupt > 0) {
      out += " (" + std::to_string(cs.corrupt) + " corrupt entries re-run)";
    }
  }
  if (stats_.skipped > 0) {
    out += ", " + std::to_string(stats_.skipped) + " leased elsewhere or done";
  }
  if (stats_.retries > 0) out += ", " + std::to_string(stats_.retries) + " retried";
  if (stats_.failures > 0) out += ", " + std::to_string(stats_.failures) + " FAILED";
  out += ", jobs=" + std::to_string(effective_jobs(opts_, n_points));
  return out;
}

void require_ok(const std::vector<PointSpec>& points,
                const std::vector<PointResult>& results) {
  std::string errors;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].failed) continue;
    if (!errors.empty()) errors += "; ";
    errors += results[i].error.empty() ? points[i].label() : results[i].error;
  }
  if (!errors.empty()) {
    throw std::runtime_error("experiment points failed: " + errors);
  }
}

}  // namespace kop::harness::jobs

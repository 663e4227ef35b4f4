// Metrics collection for experiment drivers: every run_nas/run_epcc
// call can snapshot the booted stack's counter fabric into a RunMetrics
// record, and a MetricsSink turns a batch of records into a kop-metrics
// v1 JSON document (the one schema shared by run_experiment --json, the
// bench/fig* binaries, and examples/omp_profiler -- see
// telemetry/metrics.hpp for the schema).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness/jobs/options.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/json.hpp"

namespace kop::harness {

/// Per-construct aggregate (from the OMPT ConstructProfiler or from
/// EPCC measurements).
struct ConstructStat {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double mean_us = 0.0;
};

/// One experiment run: identity, timing, event counters, optional
/// per-construct breakdown.
struct RunMetrics {
  std::string label;    // e.g. "cg.S" or "syncbench"
  std::string machine;  // e.g. "phi" | "8xeon"
  std::string path;     // core::path_name() of the stack
  int threads = 1;
  double timed_seconds = 0.0;
  double init_seconds = 0.0;
  telemetry::Snapshot counters;
  /// std::map so the JSON field order is stable (sorted by name).
  std::map<std::string, ConstructStat> constructs;
  /// Emit the per_cpu breakdown (off by default: figure sweeps would
  /// bloat the artifact; omp_profiler turns it on).
  bool include_per_cpu = false;
};

/// Serialize one run entry of the kop-metrics v1 document (shared by
/// MetricsSink and the jobs::ResultCache entry format).
void write_run_json(telemetry::JsonWriter& w, const RunMetrics& run);

/// Parse one run entry back into a RunMetrics; returns false when the
/// value does not have the v1 run shape.  Exact for everything the
/// writer emits (doubles round-trip via %.17g).
bool parse_run_json(const telemetry::JsonValue& run, RunMetrics* out);

/// Accumulates runs and renders the kop-metrics v1 document.
/// Thread-safe: concurrent experiment runs (jobs::JobRunner workers, or
/// direct run_nas calls from several host threads) may add() into one
/// sink; rendering snapshots under the same lock.  runs() returns a
/// reference and is only safe once all writers have joined.
class MetricsSink {
 public:
  explicit MetricsSink(std::string generator) : generator_(std::move(generator)) {}

  void add(RunMetrics run) {
    std::lock_guard<std::mutex> lock(mu_);
    runs_.push_back(std::move(run));
  }
  bool empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return runs_.empty();
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return runs_.size();
  }
  const std::vector<RunMetrics>& runs() const { return runs_; }

  /// Render the kop-metrics v1 JSON document (validates against
  /// telemetry::validate_metrics_json by construction).
  std::string to_json() const;

  /// Write to_json() to `path`; throws std::runtime_error on I/O error.
  void write_file(const std::string& path) const;

 private:
  std::string generator_;
  std::vector<RunMetrics> runs_;
  mutable std::mutex mu_;
};

/// Human-readable table of an event-counter snapshot (totals only,
/// zero rows skipped).
std::string format_counters_table(const telemetry::Snapshot& snap);

/// Common CLI handling for the figure/bench binaries:
///   --json <path>      write a kop-metrics v1 artifact
///   --quick            reduced problem sizes (CI bench-smoke)
///   --jobs N           host worker threads (default: all cores)
///   --cache-dir <dir>  content-addressed result cache directory
///   --no-cache         ignore --cache-dir (force re-simulation)
/// Binaries with flags of their own strip them before calling
/// parse_fig_options, which rejects anything else with usage.
struct FigOptions {
  std::string json_path;
  bool quick = false;
  bool ok = true;  // false: bad usage, caller should exit non-zero
  jobs::JobOptions jobs;
};

FigOptions parse_fig_options(int argc, char** argv);

/// Write the sink to opts.json_path (if set) and return the process
/// exit code (non-zero on bad usage or I/O failure).
int finish_figure(const FigOptions& opts, const MetricsSink& sink);

}  // namespace kop::harness

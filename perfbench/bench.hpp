// Shared pieces of the kopbench benchmark: clocks and quantiles, the
// in-memory span tracer, the metric report, and the workload entry
// point.  See README.md in this directory for what each workload
// measures and why.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Host steady-clock time in seconds.
double now_s();

/// Quantile q in (0, 1) of the samples by the Harrell-Davis estimator;
/// 0 for no samples.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---- Tracing ---------------------------------------------------------

/// One timed call into a layer.  The layer is the name up to its first
/// '.', so "cache.store" belongs to "cache".
struct Span {
  std::string name;
  std::uint64_t parent = 0;   // span id (index + 1) of the caller; 0 = root
  std::uint64_t request = 0;  // point id the span works for
  double start = 0.0;
  double end = 0.0;
};

/// Spans kept in memory and written out when the run ends.
class Tracer {
 public:
  /// Opens a span; returns its id, never 0.
  std::uint64_t begin(std::string name, std::uint64_t parent, std::uint64_t request);
  /// Closes a span; id 0 (a span that was never opened) is ignored.
  void end(std::uint64_t id);

  /// Self time per layer: each span's duration minus the union of its
  /// children's intervals, summed by layer.
  std::map<std::string, double> self_seconds() const;
  std::size_t size() const;
  void write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, std::string name, std::uint64_t parent, std::uint64_t request)
      : t_(t), id_(t.begin(std::move(name), parent, request)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::uint64_t id_;
};

// ---- Report ----------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything a run prints: metrics by name, operation counts, and the
/// correctness verdict with the reason for every violation.
struct Report {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  // extra human-readable lines
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  void violate(std::string why) { violations.push_back(std::move(why)); }
  bool correct() const { return violations.empty(); }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny matrices and a single sweep (the self-test).
  bool minimal = false;
  /// Directory of the reference data files.
  std::string data_dir;
  /// Where spans go when tracing (empty: not written).
  std::string trace_path;
};

/// Run one workload into `report`.  Throws std::invalid_argument for an
/// unknown workload name.
void run_workload(const Options& opts, Report& report);

/// Fault-injection checks that back the self-test: a corrupted cache
/// entry is a miss, a duplicate DONE is a failure.  Returns violations.
std::vector<std::string> fault_checks();

}  // namespace perfbench

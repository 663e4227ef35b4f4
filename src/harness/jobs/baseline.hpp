// Baseline shape-diff: compare a freshly regenerated sweep against a
// saved result cache and flag perf-*shape* regressions.
//
// The interesting regressions in this reproduction are rarely "a point
// got slower" (virtual time is deterministic) but "the figure changed
// shape" after a cost-model edit: a path's geomean gain drifted, a
// win/loss cell flipped sides, the thread count where a path starts
// losing moved.  kop_baseline regenerates a figure's points, reads the
// saved baseline for the same points, reduces both to normalized-gain
// cells, and judges the drift -- with a machine-readable JSON verdict
// CI can gate on.
//
// Baselines are read fingerprint-agnostically: a cost-param change
// moves every cache key (the fingerprint is part of the key), which is
// exactly the situation this tool exists for, so lookups go through a
// canonical-form index of the directory rather than ResultCache keys.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/jobs/point.hpp"

namespace kop::harness::jobs {

/// Read-only, fingerprint-agnostic view of a cache directory: every
/// well-formed entry indexed by the canonical point form recorded in
/// its x_kop_cache sidecar.  A missing directory is an empty index.
/// A point recorded by more than one entry (say, under two
/// calibrations) has no single answer, so it is not indexed at all.
class CacheIndex {
 public:
  explicit CacheIndex(const std::string& dir);

  /// Load the entry for `spec` if one was recorded under *any*
  /// cost-model fingerprint.  Same corruption semantics as
  /// ResultCache::load: false on missing or undecodable, and false for
  /// a point recorded twice.
  bool load(const PointSpec& spec, PointResult* out) const;

  /// Entries read, counting every entry of a point recorded twice.
  std::size_t size() const { return entries_; }
  /// Points recorded by more than one entry (none of them loads).
  std::size_t recorded_twice() const { return recorded_twice_; }

 private:
  std::map<std::string, std::string> by_canonical_;  // canonical -> bytes
  std::size_t entries_ = 0;
  std::size_t recorded_twice_ = 0;
};

/// One figure cell reduced to its shape: the normalized gain
/// (baseline-path time / path time, or reference overhead / path
/// overhead for EPCC) in the saved baseline and in the fresh rerun.
struct ShapeCell {
  std::string figure;   // "fig09"
  std::string series;   // path under comparison, e.g. "rtk"
  std::string group;    // bench full name, or EPCC construct group
  std::string x_label;  // CPU count or construct name
  double baseline_gain = 0.0;
  double fresh_gain = 0.0;
};

/// A cell loses only when its gain is below 1 - kLossMargin, and the
/// flip and crossover tests both use that rule.  Paths with equal
/// overheads (PIK and Linux share most EPCC costs) produce gains of 1.0
/// within ~1e-13 of floating-point rounding, which must not read as a
/// win turning into a loss; 1e-9 is far above that noise and far below
/// one simulated nanosecond on any overhead.
inline constexpr double kLossMargin = 1e-9;

struct BaselineOptions {
  /// Allowed relative drift of a series' geomean gain
  /// (|fresh/baseline - 1|); the default 5% absorbs benign
  /// recalibration while catching shape-level movement.
  double geomean_tolerance = 0.05;
  /// Pass a partial comparison: points the baseline cannot compare
  /// are listed but do not fail the verdict (kop_baseline
  /// --allow-missing, for cold caches).
  bool allow_missing = false;
};

/// Judgement for one (figure, series) gain curve.
struct SeriesVerdict {
  std::string figure;
  std::string series;
  double baseline_geomean = 0.0;
  double fresh_geomean = 0.0;
  double drift = 0.0;    // |fresh/baseline - 1|
  int flips = 0;         // cells whose win/loss side changed
  int crossover_moves = 0;  // groups whose first-losing-x moved
  bool ok = false;
};

struct BaselineVerdict {
  std::vector<ShapeCell> cells;
  std::vector<SeriesVerdict> series;
  /// Points absent from the baseline cache, or recorded there twice
  /// (labels); these make the comparison partial, and fail it unless
  /// BaselineOptions::allow_missing.
  std::vector<std::string> incomparable;

  bool shapes_ok() const;                       // every series ok
  /// The verdict text(), json() and kop_baseline's exit code report.
  bool ok(const BaselineOptions& opts = {}) const {
    return shapes_ok() && (opts.allow_missing || incomparable.empty());
  }
  std::string text(const BaselineOptions& opts) const;
  std::string json(const BaselineOptions& opts) const;
};

/// Reduce cells to per-series verdicts (geomean drift, win/loss flips,
/// per-group crossover moves).  Cell order within a series must be the
/// figure's enumeration order (ascending x within each group).
BaselineVerdict compare_shapes(std::vector<ShapeCell> cells,
                               const BaselineOptions& opts);

/// Shape cells for the Figs. 9/10/14 NAS-normalized matrix.  `baseline`
/// / `have` / `fresh` align with enumerate_nas_normalized's point
/// order; cells touching a missing baseline point are skipped and the
/// points reported through *missing.
std::vector<ShapeCell> nas_shape_cells(
    const std::string& figure, const std::string& machine,
    const std::vector<core::PathKind>& paths, const std::vector<int>& scales,
    const std::vector<nas::BenchmarkSpec>& suite,
    const std::vector<PointResult>& baseline, const std::vector<bool>& have,
    const std::vector<PointResult>& fresh, std::vector<std::string>* missing);

/// Shape cells for the Figs. 7/8/13 EPCC comparison; paths[0] is the
/// reference series the others normalize against.  Alignment and
/// missing-handling as in nas_shape_cells.
std::vector<ShapeCell> epcc_shape_cells(
    const std::string& figure, const std::string& machine, int threads,
    const std::vector<core::PathKind>& paths, const epcc::EpccConfig& config,
    const std::vector<PointResult>& baseline, const std::vector<bool>& have,
    const std::vector<PointResult>& fresh, std::vector<std::string>* missing);

}  // namespace kop::harness::jobs

// Shared figure builders: each builder is split into the three layers
// of the experiment job subsystem --
//
//   enumerate  an enumerate_*() function flattens the figure's matrix
//              into a deduplicated std::vector<jobs::PointSpec>
//   execute    a jobs::JobRunner runs the points concurrently (--jobs),
//              consulting the content-addressed result cache when one
//              is configured
//   print      the print_*() function re-derives the same enumeration,
//              indexes the in-order results, and renders rows in the
//              shapes the paper reports (normalized-performance series
//              with the single-thread baseline `t`, absolute-time
//              triples, EPCC side-by-side overhead tables)
//
// print_*() returns the rendered text instead of writing stdout so the
// determinism tests can assert byte-identical output across --jobs
// levels; the bench binaries fputs() the result.
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/jobs/runner.hpp"
#include "harness/metrics.hpp"

namespace kop::harness {

/// The execute stage shared by every print_*() builder, run_coord_mode
/// and the point-based ablations: run the points through the pool,
/// fail loudly on any failed point, record the metrics of every point
/// this worker ran in enumeration order (when `sink` is non-null), and
/// report runner/cache statistics on stderr (so stdout stays
/// byte-identical across --jobs levels and cache states).
std::vector<jobs::PointResult> run_points(
    const std::vector<jobs::PointSpec>& points, MetricsSink* sink,
    const jobs::JobOptions& jopts);

/// Coord-mode intercept shared by every print_*() builder and the
/// point-based ablations.  Returns false without --coord (the caller
/// proceeds normally).  Under --coord ADDR every point is leased from a
/// kop_sweepd daemon before it runs; points leased to other workers
/// (or already complete) are skipped.  This worker's points populate
/// the cache and, when a sink is given, the --json artifact, and *out
/// receives a coverage note in place of the tables -- figure tables
/// need every worker's results, so they are printed by a rerun against
/// the merged worker caches.
bool run_coord_mode(const jobs::PointMatrix& mx, MetricsSink* sink,
                    const jobs::JobOptions& jopts, std::string* out);

/// One point of a NAS figure: `spec` on `path` with `threads` threads.
jobs::PointSpec nas_point(const std::string& machine, core::PathKind path,
                          int threads, const nas::BenchmarkSpec& spec);
/// One point of an EPCC figure: the whole suite (EpccPart::kAll).
jobs::PointSpec epcc_point(const std::string& machine, core::PathKind path,
                           int threads, const epcc::EpccConfig& config);

// The loop nests of the Figs. 9/10/14 and Figs. 7/8/13 matrices.  The
// enumerate_*(), print_*() and shape extractors (jobs/baseline.hpp)
// all walk them, so PointMatrix::add() doubles as the result-index
// lookup wherever a figure's results are read.
void build_nas_normalized(jobs::PointMatrix& mx, const std::string& machine,
                          const std::vector<core::PathKind>& paths,
                          const std::vector<int>& scales,
                          const std::vector<nas::BenchmarkSpec>& suite);
void build_epcc_figure(jobs::PointMatrix& mx, const std::string& machine,
                       int threads, const std::vector<core::PathKind>& paths,
                       const epcc::EpccConfig& config);

// Every builder takes an optional MetricsSink; when non-null each
// underlying experiment point is recorded (kop-metrics v1, in
// enumeration order) in addition to the rendered tables.

/// Figs. 9/10/14 matrix: per spec, the Linux baseline at every scale
/// plus every requested path at every scale.
std::vector<jobs::PointSpec> enumerate_nas_normalized(
    const std::string& machine, const std::vector<core::PathKind>& paths,
    const std::vector<int>& scales, const std::vector<nas::BenchmarkSpec>& suite);

/// Figs. 11/12/15 matrix (absolute and normalized print the same
/// points): Linux+OMP vs Linux+AutoMP vs NK+AutoMP per scale.
std::vector<jobs::PointSpec> enumerate_cck_matrix(
    const std::string& machine, const std::vector<int>& scales,
    const std::vector<nas::BenchmarkSpec>& suite);

/// Figs. 7/8/13 matrix: one EPCC kAll run per path.
std::vector<jobs::PointSpec> enumerate_epcc_figure(
    const std::string& machine, int threads,
    const std::vector<core::PathKind>& paths, const epcc::EpccConfig& config);

/// Figs. 9/10/14: normalized performance (baseline / path time) of one
/// or more paths against the Linux baseline across a CPU sweep.
std::string print_nas_normalized(const std::string& title,
                                 const std::string& machine,
                                 const std::vector<core::PathKind>& paths,
                                 const std::vector<int>& scales,
                                 const std::vector<nas::BenchmarkSpec>& suite,
                                 MetricsSink* sink = nullptr,
                                 const jobs::JobOptions& jopts = {});

/// Fig. 11: absolute times for Linux+OMP vs Linux+AutoMP vs NK+AutoMP.
std::string print_cck_absolute(const std::string& title,
                               const std::string& machine,
                               const std::vector<int>& scales,
                               const std::vector<nas::BenchmarkSpec>& suite,
                               MetricsSink* sink = nullptr,
                               const jobs::JobOptions& jopts = {});

/// Figs. 12/15: the same matrix normalized to Linux+OMP.
std::string print_cck_normalized(const std::string& title,
                                 const std::string& machine,
                                 const std::vector<int>& scales,
                                 const std::vector<nas::BenchmarkSpec>& suite,
                                 MetricsSink* sink = nullptr,
                                 const jobs::JobOptions& jopts = {});

/// Figs. 7/8/13: EPCC overhead tables for several paths side by side.
std::string print_epcc_figure(const std::string& title,
                              const std::string& machine, int threads,
                              const std::vector<core::PathKind>& paths,
                              const epcc::EpccConfig& config,
                              MetricsSink* sink = nullptr,
                              const jobs::JobOptions& jopts = {});

/// Scale a suite's work so full sweeps stay fast; virtual-time ratios
/// are unchanged (the simulation is linear in per-iteration cost).
std::vector<nas::BenchmarkSpec> scale_suite(std::vector<nas::BenchmarkSpec> suite,
                                            double factor, int timesteps);

// The exact sweeps the fig09/fig13 binaries run (full or --quick),
// factored out so kop_baseline enumerates the same points -- a
// baseline cache recorded by `fig09_nas_rtk_phi --quick --cache-dir d`
// must line up entry-for-entry with what the diff driver regenerates.

struct Fig09Sweep {
  std::vector<nas::BenchmarkSpec> suite;
  std::vector<int> scales;
  std::vector<core::PathKind> paths;  // {rtk}
  std::string machine;                // "phi"
};
Fig09Sweep fig09_sweep(bool quick);

struct Fig13Sweep {
  int threads = 0;
  std::vector<core::PathKind> paths;  // {linux, rtk, pik}
  epcc::EpccConfig config;
  std::string machine;                // "8xeon"
};
Fig13Sweep fig13_sweep(bool quick);

}  // namespace kop::harness

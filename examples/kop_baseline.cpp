// Baseline shape-diff driver: regenerate a figure's sweep and compare
// its perf *shape* against a saved result cache.
//
//   kop_baseline --baseline <cache-dir> [--fig fig09,fig13] [--quick]
//                [--tolerance 0.05] [--allow-missing] [--json <path>]
//                [--jobs N] [--cache-dir <dir>] [--no-cache]
//
// The sweeps are the exact fig09/fig13 definitions (fig09_sweep /
// fig13_sweep), so a baseline recorded with e.g.
//
//   fig09_nas_rtk_phi --quick --cache-dir baseline/
//
// lines up point-for-point.  Baseline entries are read
// fingerprint-agnostically -- a hw/cost_params.hpp edit moves every
// cache key, and drift *across* such an edit is exactly what this tool
// judges: per-series geomean gain drift beyond --tolerance, win/loss
// flips, and crossover moves all fail the verdict.  A point the
// baseline records twice (two calibrations in one directory) is not
// compared: it is listed as incomparable, like a missing one.
//
// Exit code: 0 clean, 1 shape regression (or baseline points missing,
// unless --allow-missing), 2 usage.  --json writes the machine-readable
// verdict CI gates on.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness/figures.hpp"
#include "harness/jobs/baseline.hpp"
#include "harness/jobs/runner.hpp"

using namespace kop;
namespace jobs = kop::harness::jobs;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --baseline <cache-dir> [--fig fig09,fig13]\n"
               "          [--quick] [--tolerance <rel>] [--allow-missing]\n"
               "          [--json <path>] [--jobs N] [--cache-dir <dir>]\n"
               "          [--no-cache]\n",
               argv0);
  return 2;
}

struct FigureDiff {
  std::vector<jobs::ShapeCell> cells;
  std::vector<std::string> missing;
};

/// Run the figure's points fresh, look the same points up in the
/// baseline index, and reduce both sides to shape cells.
FigureDiff diff_figure(const std::string& fig, bool quick,
                       const jobs::CacheIndex& baseline_index,
                       const jobs::JobOptions& jopts) {
  FigureDiff diff;
  std::vector<jobs::PointSpec> points;
  if (fig == "fig09") {
    const auto sweep = harness::fig09_sweep(quick);
    points = harness::enumerate_nas_normalized(sweep.machine, sweep.paths,
                                               sweep.scales, sweep.suite);
    jobs::JobRunner runner(jopts);
    const auto fresh = runner.run(points);
    std::fprintf(stderr, "[jobs] %s\n",
                 runner.summary(points.size()).c_str());
    jobs::require_ok(points, fresh);
    std::vector<jobs::PointResult> base(points.size());
    std::vector<bool> have(points.size(), false);
    for (std::size_t i = 0; i < points.size(); ++i)
      have[i] = baseline_index.load(points[i], &base[i]);
    diff.cells = jobs::nas_shape_cells(fig, sweep.machine, sweep.paths,
                                       sweep.scales, sweep.suite, base, have,
                                       fresh, &diff.missing);
  } else {  // fig13
    const auto sweep = harness::fig13_sweep(quick);
    points = harness::enumerate_epcc_figure(sweep.machine, sweep.threads,
                                            sweep.paths, sweep.config);
    jobs::JobRunner runner(jopts);
    const auto fresh = runner.run(points);
    std::fprintf(stderr, "[jobs] %s\n",
                 runner.summary(points.size()).c_str());
    jobs::require_ok(points, fresh);
    std::vector<jobs::PointResult> base(points.size());
    std::vector<bool> have(points.size(), false);
    for (std::size_t i = 0; i < points.size(); ++i)
      have[i] = baseline_index.load(points[i], &base[i]);
    diff.cells = jobs::epcc_shape_cells(fig, sweep.machine, sweep.threads,
                                        sweep.paths, sweep.config, base, have,
                                        fresh, &diff.missing);
  }
  return diff;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_dir, figs = "fig09,fig13", json_path;
  bool quick = false;
  jobs::BaselineOptions bopts;
  jobs::JobOptions jopts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline" && i + 1 < argc) {
      baseline_dir = argv[++i];
    } else if (arg == "--fig" && i + 1 < argc) {
      figs = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--tolerance" && i + 1 < argc) {
      bopts.geomean_tolerance = std::strtod(argv[++i], nullptr);
    } else if (arg == "--allow-missing") {
      bopts.allow_missing = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      jopts.jobs = std::atoi(argv[++i]);
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      jopts.cache_dir = argv[++i];
    } else if (arg == "--no-cache") {
      jopts.no_cache = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (baseline_dir.empty()) return usage(argv[0]);

  std::vector<std::string> wanted;
  std::string cur;
  for (char ch : figs + ",") {
    if (ch == ',') {
      if (cur == "fig09" || cur == "fig13") {
        wanted.push_back(cur);
      } else if (!cur.empty()) {
        std::fprintf(stderr, "error: unknown figure '%s' (fig09, fig13)\n",
                     cur.c_str());
        return 2;
      }
      cur.clear();
    } else {
      cur += ch;
    }
  }
  if (wanted.empty()) return usage(argv[0]);

  const jobs::CacheIndex baseline_index(baseline_dir);
  std::fprintf(stderr, "[kop_baseline] %zu baseline entries in %s",
               baseline_index.size(), baseline_dir.c_str());
  if (baseline_index.recorded_twice() > 0) {
    std::fprintf(stderr, ", %zu point(s) recorded twice (not compared)",
                 baseline_index.recorded_twice());
  }
  std::fputc('\n', stderr);

  jobs::BaselineVerdict verdict;
  try {
    std::vector<jobs::ShapeCell> cells;
    std::vector<std::string> missing;
    for (const auto& fig : wanted) {
      auto diff = diff_figure(fig, quick, baseline_index, jopts);
      cells.insert(cells.end(), diff.cells.begin(), diff.cells.end());
      missing.insert(missing.end(), diff.missing.begin(), diff.missing.end());
    }
    verdict = jobs::compare_shapes(std::move(cells), bopts);
    // A shared point (e.g. the Linux column) goes missing once per cell
    // that needed it; report it once.
    for (const auto& m : missing) {
      bool seen = false;
      for (const auto& v : verdict.incomparable) seen = seen || v == m;
      if (!seen) verdict.incomparable.push_back(m);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::fputs(verdict.text(bopts).c_str(), stdout);
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
    out << verdict.json(bopts);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return verdict.ok(bopts) ? 0 : 1;
}

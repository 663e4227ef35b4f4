// Cache-backed bisection of one cost-model constant.
//
//   kop_bisect --param <personality.field> --baseline <cache-dir>
//              [--min 0.25] [--max 4.0] [--steps 5] [--bisect-iters 4]
//              [--quick] [--tolerance <rel>] [--jobs N]
//              [--cache-dir <dir>] [--json <path>]
//              [--expect-hit-rate <frac>] [--list-params]
//
// Recalibration question the paper pipeline keeps hitting: how far can
// one hw/cost_params.hpp constant move before the reported *shape*
// (RTK-vs-Linux gains, fig09) breaks against a recorded baseline?
// kop_bisect sweeps a multiplicative scale over --param on a log grid,
// judges each scale with the kop_baseline shape predicate, then
// bisects every pass/fail boundary in log space.
//
// The grid enumerates one matrix whose points carry the scale in
// PointSpec::cost_scales; each point's stack takes it right after
// boot, before the workload runs, so the untimed init phase runs at
// the scaled cost too.  The shape predicate judges fig09's timed
// seconds, so a constant that only shapes the untimed phase -- e.g. a
// fault cost paid while the NAS regions are first touched -- reads as
// flat here.  Because the scale rides in the point's canonical form
// (and so in its cache key), every ResultCache entry stays valid forever
// and re-running the same bisection hits the cache for every point (the
// pocl trick -- reuse keyed by exact content, Jääskeläinen et al.);
// --expect-hit-rate turns that into a CI assertion.
//
// Exit code: 0 ok, 1 evaluation failure or hit-rate shortfall, 2 usage.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness/figures.hpp"
#include "harness/jobs/baseline.hpp"
#include "harness/jobs/runner.hpp"
#include "hw/cost_params.hpp"

using namespace kop;
namespace jobs = kop::harness::jobs;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --param <personality.field> --baseline <cache-dir>\n"
               "          [--min F] [--max F] [--steps N] [--bisect-iters N]\n"
               "          [--quick] [--tolerance <rel>] [--jobs N]\n"
               "          [--cache-dir <dir>] [--json <path>]\n"
               "          [--expect-hit-rate <frac>] [--list-params]\n",
               argv0);
  return 2;
}

struct Eval {
  double scale = 1.0;
  bool pass = false;
};

struct Driver {
  std::string param;
  bool quick = false;
  jobs::BaselineOptions bopts;
  jobs::JobOptions jopts;
  const jobs::CacheIndex* baseline = nullptr;
  // Aggregate cache traffic across every evaluation.
  std::uint64_t hits = 0;
  std::uint64_t executed = 0;

  /// Judge a batch of scales in one JobRunner pass, one verdict per
  /// scale in input order.  Every scale contributes the same fig09
  /// sweep, tagged per point with {param, scale} in cost_scales -- so
  /// the whole batch is one matrix the JobRunner spreads over its
  /// workers.  Baseline lookups use the scale-free twin of each point
  /// (the baseline was recorded without scale suffixes).  Throws on
  /// simulation failure (a scale so extreme the run collapses is an
  /// error, not a shape verdict).
  std::vector<bool> evaluate_batch(const std::vector<double>& scales) {
    const auto sweep = harness::fig09_sweep(quick);
    const auto base_points = harness::enumerate_nas_normalized(
        sweep.machine, sweep.paths, sweep.scales, sweep.suite);
    const std::size_t B = base_points.size();
    std::vector<jobs::PointSpec> all;
    all.reserve(scales.size() * B);
    for (const double s : scales) {
      for (jobs::PointSpec p : base_points) {
        p.cost_scales.push_back({param, s});
        all.push_back(std::move(p));
      }
    }
    jobs::JobRunner runner(jopts);
    const auto fresh = runner.run(all);
    hits += runner.stats().cache_hits;
    executed += runner.stats().executed;
    jobs::require_ok(all, fresh);

    std::vector<jobs::PointResult> base(B);
    std::vector<bool> have(B, false);
    for (std::size_t i = 0; i < B; ++i)
      have[i] = baseline->load(base_points[i], &base[i]);

    std::vector<bool> verdicts;
    verdicts.reserve(scales.size());
    for (std::size_t k = 0; k < scales.size(); ++k) {
      const auto lo = fresh.begin() + static_cast<std::ptrdiff_t>(k * B);
      std::vector<jobs::PointResult> slice(lo, lo + static_cast<std::ptrdiff_t>(B));
      std::vector<std::string> missing;
      auto cells =
          jobs::nas_shape_cells("fig09", sweep.machine, sweep.paths,
                                sweep.scales, sweep.suite, base, have, slice,
                                &missing);
      const auto verdict = jobs::compare_shapes(std::move(cells), bopts);
      verdicts.push_back(verdict.shapes_ok() && missing.empty());
    }
    return verdicts;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Driver drv;
  std::string baseline_dir, json_path;
  double lo = 0.25, hi = 4.0, expect_hit_rate = -1.0;
  int steps = 5, bisect_iters = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--param" && i + 1 < argc) {
      drv.param = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_dir = argv[++i];
    } else if (arg == "--min" && i + 1 < argc) {
      lo = std::strtod(argv[++i], nullptr);
    } else if (arg == "--max" && i + 1 < argc) {
      hi = std::strtod(argv[++i], nullptr);
    } else if (arg == "--steps" && i + 1 < argc) {
      steps = std::atoi(argv[++i]);
    } else if (arg == "--bisect-iters" && i + 1 < argc) {
      bisect_iters = std::atoi(argv[++i]);
    } else if (arg == "--quick") {
      drv.quick = true;
    } else if (arg == "--tolerance" && i + 1 < argc) {
      drv.bopts.geomean_tolerance = std::strtod(argv[++i], nullptr);
    } else if (arg == "--jobs" && i + 1 < argc) {
      drv.jopts.jobs = std::atoi(argv[++i]);
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      drv.jopts.cache_dir = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--expect-hit-rate" && i + 1 < argc) {
      expect_hit_rate = std::strtod(argv[++i], nullptr);
    } else if (arg == "--list-params") {
      for (const auto& name : hw::cost_param_names())
        std::printf("%s\n", name.c_str());
      return 0;
    } else {
      return usage(argv[0]);
    }
  }
  if (drv.param.empty() || baseline_dir.empty() || steps < 2 ||
      !(lo > 0.0) || !(hi > lo)) {
    return usage(argv[0]);
  }
  const auto names = hw::cost_param_names();
  if (std::find(names.begin(), names.end(), drv.param) == names.end()) {
    std::fprintf(stderr,
                 "error: unknown cost parameter: %s (expected one of "
                 "--list-params)\n",
                 drv.param.c_str());
    return 2;
  }

  const jobs::CacheIndex baseline_index(baseline_dir);
  drv.baseline = &baseline_index;
  std::fprintf(stderr, "[kop_bisect] %s over [%g, %g], %zu baseline entries",
               drv.param.c_str(), lo, hi, baseline_index.size());
  if (baseline_index.recorded_twice() > 0) {
    std::fprintf(stderr, ", %zu point(s) recorded twice (not compared)",
                 baseline_index.recorded_twice());
  }
  std::fputc('\n', stderr);

  std::vector<Eval> evals;
  std::vector<double> boundaries;
  int rc = 0;
  try {
    // Coarse pass: log-spaced grid, endpoints included, evaluated as
    // ONE batched matrix.
    std::vector<double> grid;
    for (int i = 0; i < steps; ++i) {
      grid.push_back(std::exp(std::log(lo) +
                              (std::log(hi) - std::log(lo)) * i / (steps - 1)));
    }
    const std::vector<bool> grid_pass = drv.evaluate_batch(grid);
    for (int i = 0; i < steps; ++i) {
      std::printf("scale %.4f -> %s\n", grid[i],
                  grid_pass[i] ? "PASS" : "FAIL");
      evals.push_back({grid[i], grid_pass[i]});
    }
    // Refine every pass/fail boundary of the coarse grid by log-space
    // bisection.  Rounds are batched across boundaries: each round
    // evaluates one midpoint per still-active interval in a single
    // matrix.
    struct Interval {
      double a, b;
      bool a_pass;
    };
    std::vector<Interval> active;
    for (std::size_t i = 1; i < evals.size(); ++i) {
      if (evals[i - 1].pass != evals[i].pass)
        active.push_back({evals[i - 1].scale, evals[i].scale,
                          evals[i - 1].pass});
    }
    for (int it = 0; it < bisect_iters && !active.empty(); ++it) {
      std::vector<double> mids;
      mids.reserve(active.size());
      for (const Interval& iv : active)
        mids.push_back(std::exp(0.5 * (std::log(iv.a) + std::log(iv.b))));
      const std::vector<bool> mid_pass = drv.evaluate_batch(mids);
      for (std::size_t j = 0; j < active.size(); ++j) {
        std::printf("  bisect %.4f -> %s\n", mids[j],
                    mid_pass[j] ? "PASS" : "FAIL");
        evals.push_back({mids[j], mid_pass[j]});
        if (mid_pass[j] == active[j].a_pass) active[j].a = mids[j];
        else active[j].b = mids[j];
      }
    }
    for (const Interval& iv : active) {
      const double boundary = std::exp(0.5 * (std::log(iv.a) + std::log(iv.b)));
      boundaries.push_back(boundary);
      std::printf("boundary near scale %.4f (%s)\n", boundary,
                  drv.param.c_str());
    }
    if (boundaries.empty()) {
      std::printf("no pass/fail boundary in [%g, %g]: shape verdict is %s "
                  "across the whole range\n",
                  lo, hi, evals.front().pass ? "PASS" : "FAIL");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }

  const std::uint64_t lookups = drv.hits + drv.executed;
  const double rate =
      lookups == 0 ? 0.0 : static_cast<double>(drv.hits) / lookups;
  std::fprintf(stderr, "[kop_bisect] cache: %llu hits / %llu lookups (%.1f%%)\n",
               static_cast<unsigned long long>(drv.hits),
               static_cast<unsigned long long>(lookups), 100.0 * rate);

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
    out << "{\n  \"param\": \"" << drv.param << "\",\n  \"evals\": [";
    for (std::size_t i = 0; i < evals.size(); ++i) {
      out << (i ? ", " : "") << "{\"scale\": " << evals[i].scale
          << ", \"pass\": " << (evals[i].pass ? "true" : "false") << "}";
    }
    out << "],\n  \"boundaries\": [";
    for (std::size_t i = 0; i < boundaries.size(); ++i)
      out << (i ? ", " : "") << boundaries[i];
    out << "],\n  \"cache_hits\": " << drv.hits
        << ",\n  \"cache_lookups\": " << lookups
        << ",\n  \"cache_hit_rate\": " << rate << "\n}\n";
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      rc = 1;
    }
  }
  if (expect_hit_rate >= 0.0 && rate < expect_hit_rate) {
    std::fprintf(stderr,
                 "error: cache hit rate %.1f%% below expected %.1f%%\n",
                 100.0 * rate, 100.0 * expect_hit_rate);
    rc = 1;
  }
  return rc;
}

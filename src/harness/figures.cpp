#include "harness/figures.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "harness/table.hpp"
#include "sim/stats.hpp"

namespace kop::harness {

jobs::PointSpec nas_point(const std::string& machine, core::PathKind path,
                          int threads, const nas::BenchmarkSpec& spec) {
  jobs::PointSpec p;
  p.kind = jobs::PointSpec::Kind::kNas;
  p.machine = machine;
  p.path = path;
  p.threads = threads;
  p.nas = spec;
  return p;
}

jobs::PointSpec epcc_point(const std::string& machine, core::PathKind path,
                           int threads, const epcc::EpccConfig& config) {
  jobs::PointSpec p;
  p.kind = jobs::PointSpec::Kind::kEpcc;
  p.machine = machine;
  p.path = path;
  p.threads = threads;
  p.epcc_part = EpccPart::kAll;
  p.epcc = config;
  return p;
}

void build_nas_normalized(jobs::PointMatrix& mx, const std::string& machine,
                          const std::vector<core::PathKind>& paths,
                          const std::vector<int>& scales,
                          const std::vector<nas::BenchmarkSpec>& suite) {
  for (const auto& spec : suite) {
    mx.add(nas_point(machine, core::PathKind::kLinuxOmp, 1, spec));
    for (int n : scales) {
      mx.add(nas_point(machine, core::PathKind::kLinuxOmp, n, spec));
      for (auto p : paths) mx.add(nas_point(machine, p, n, spec));
    }
  }
}

void build_epcc_figure(jobs::PointMatrix& mx, const std::string& machine,
                       int threads, const std::vector<core::PathKind>& paths,
                       const epcc::EpccConfig& config) {
  for (auto p : paths) mx.add(epcc_point(machine, p, threads, config));
}

namespace {

void build_cck_matrix(jobs::PointMatrix& mx, const std::string& machine,
                      const std::vector<int>& scales,
                      const std::vector<nas::BenchmarkSpec>& suite) {
  for (const auto& spec : suite) {
    mx.add(nas_point(machine, core::PathKind::kLinuxOmp, 1, spec));
    for (int n : scales) {
      mx.add(nas_point(machine, core::PathKind::kLinuxOmp, n, spec));
      mx.add(nas_point(machine, core::PathKind::kAutoMpLinux, n, spec));
      mx.add(nas_point(machine, core::PathKind::kAutoMpNautilus, n, spec));
    }
  }
}

double timed_of(const std::vector<jobs::PointResult>& results,
                std::size_t idx) {
  return results[idx].metrics.timed_seconds;
}

}  // namespace

std::vector<jobs::PointResult> run_points(
    const std::vector<jobs::PointSpec>& points, MetricsSink* sink,
    const jobs::JobOptions& jopts) {
  jobs::JobRunner runner(jopts);
  auto results = runner.run(points);
  jobs::require_ok(points, results);
  std::fprintf(stderr, "[jobs] %s\n", runner.summary(points.size()).c_str());
  if (sink != nullptr) {
    for (const auto& r : results) {
      if (!r.skipped) sink->add(r.metrics);
    }
  }
  return results;
}

bool run_coord_mode(const jobs::PointMatrix& mx, MetricsSink* sink,
                    const jobs::JobOptions& jopts, std::string* out) {
  if (!jopts.coord_enabled()) return false;
  if (!jopts.cache_enabled()) {
    std::fprintf(stderr,
                 "[coord] warning: no --cache-dir; this worker's results are "
                 "computed and discarded\n");
  }
  // Every point goes to the runner: it leases each one and skips those
  // held elsewhere.
  const auto results = run_points(mx.points(), sink, jopts);
  const auto ran =
      std::count_if(results.begin(), results.end(),
                    [](const jobs::PointResult& r) { return !r.skipped; });
  *out = "[coord] executed " + std::to_string(ran) + " of " +
         std::to_string(mx.size()) + " points";
  if (jopts.cache_enabled()) *out += " into " + jopts.cache_dir;
  *out += "\n(figure tables need every worker's results: merge the worker"
          " caches with kop_merge\n and rerun with --cache-dir"
          " pointed at the merged directory)\n";
  return true;
}

std::vector<nas::BenchmarkSpec> scale_suite(std::vector<nas::BenchmarkSpec> suite,
                                            double factor, int timesteps) {
  for (auto& b : suite) {
    b.timesteps = timesteps;
    for (auto& l : b.loops) {
      l.per_iter_ns *= factor;
      // Keep the memory-access *intensity* (accesses per ns) constant
      // so the translation/fault model behaves identically.
      l.bytes_per_iter = static_cast<std::uint64_t>(
          static_cast<double>(l.bytes_per_iter) * factor);
    }
    b.serial_ns_per_step *= factor;
  }
  return suite;
}

Fig09Sweep fig09_sweep(bool quick) {
  Fig09Sweep s;
  s.suite = scale_suite(nas::paper_suite(), quick ? 0.5 : 2.0, quick ? 2 : 4);
  if (quick) s.suite.resize(2);
  s.scales = quick ? std::vector<int>{1, 8} : phi_scales();
  s.paths = {core::PathKind::kRtk};
  s.machine = "phi";
  return s;
}

Fig13Sweep fig13_sweep(bool quick) {
  Fig13Sweep s;
  s.config.outer_reps = quick ? 2 : 4;
  s.config.inner_iters = quick ? 4 : 8;
  // 192 threads: keep per-construct iteration counts moderate so the
  // full three-path sweep stays fast.
  s.config.sched_iters_per_thread = quick ? 16 : 32;
  s.config.tasks_per_thread = quick ? 4 : 8;
  s.config.tree_depth = quick ? 4 : 5;
  s.threads = quick ? 16 : 192;
  s.paths = {core::PathKind::kLinuxOmp, core::PathKind::kRtk,
             core::PathKind::kPik};
  s.machine = "8xeon";
  return s;
}

std::vector<jobs::PointSpec> enumerate_nas_normalized(
    const std::string& machine, const std::vector<core::PathKind>& paths,
    const std::vector<int>& scales,
    const std::vector<nas::BenchmarkSpec>& suite) {
  jobs::PointMatrix mx;
  build_nas_normalized(mx, machine, paths, scales, suite);
  return mx.points();
}

std::vector<jobs::PointSpec> enumerate_cck_matrix(
    const std::string& machine, const std::vector<int>& scales,
    const std::vector<nas::BenchmarkSpec>& suite) {
  jobs::PointMatrix mx;
  build_cck_matrix(mx, machine, scales, suite);
  return mx.points();
}

std::vector<jobs::PointSpec> enumerate_epcc_figure(
    const std::string& machine, int threads,
    const std::vector<core::PathKind>& paths, const epcc::EpccConfig& config) {
  jobs::PointMatrix mx;
  build_epcc_figure(mx, machine, threads, paths, config);
  return mx.points();
}

std::string print_nas_normalized(const std::string& title,
                                 const std::string& machine,
                                 const std::vector<core::PathKind>& paths,
                                 const std::vector<int>& scales,
                                 const std::vector<nas::BenchmarkSpec>& suite,
                                 MetricsSink* sink,
                                 const jobs::JobOptions& jopts) {
  jobs::PointMatrix mx;
  build_nas_normalized(mx, machine, paths, scales, suite);
  std::string out;
  if (run_coord_mode(mx, sink, jopts, &out)) return out;
  const auto results = run_points(mx.points(), sink, jopts);

  out += "== " + title + " ==\n";
  out += "   (normalized performance: Linux-OpenMP time / path time;"
         " higher is better; baseline = 1.0)\n\n";
  std::map<core::PathKind, std::vector<double>> ratios_all;

  for (const auto& spec : suite) {
    // Single-thread Linux absolute time: the figure's `t` label.
    const double t1 = timed_of(
        results, mx.add(nas_point(machine, core::PathKind::kLinuxOmp, 1, spec)));
    out += spec.full_name() + "  (t = " + Table::num(t1, 2) +
           " sec single-threaded Linux)\n";

    std::vector<std::string> headers{"cpus", "linux time"};
    for (auto p : paths) headers.push_back(core::path_name(p));
    Table table(headers);

    for (int n : scales) {
      const double linux_t = timed_of(
          results,
          mx.add(nas_point(machine, core::PathKind::kLinuxOmp, n, spec)));
      std::vector<std::string> row{std::to_string(n), Table::seconds(linux_t)};
      for (auto p : paths) {
        const double pt =
            timed_of(results, mx.add(nas_point(machine, p, n, spec)));
        const double ratio = linux_t / pt;
        ratios_all[p].push_back(ratio);
        row.push_back(Table::num(ratio));
      }
      table.add_row(std::move(row));
    }
    out += table.to_string() + "\n";
  }

  for (auto p : paths) {
    out += "geomean normalized performance [" +
           std::string(core::path_name(p)) + "]: " +
           Table::num(sim::geomean(ratios_all[p]), 3) + "\n";
  }
  out += "\n";
  return out;
}

std::string print_cck_absolute(const std::string& title,
                               const std::string& machine,
                               const std::vector<int>& scales,
                               const std::vector<nas::BenchmarkSpec>& suite,
                               MetricsSink* sink,
                               const jobs::JobOptions& jopts) {
  jobs::PointMatrix mx;
  build_cck_matrix(mx, machine, scales, suite);
  std::string out;
  if (run_coord_mode(mx, sink, jopts, &out)) return out;
  const auto results = run_points(mx.points(), sink, jopts);

  out += "== " + title + " ==\n";
  out += "   (average time in seconds; lower is better)\n\n";
  for (const auto& spec : suite) {
    out += spec.full_name() + "\n";
    Table table({"cpus", "LINUX OMP", "LINUX AutoMP", "NK AutoMP"});
    for (int n : scales) {
      const double omp = timed_of(
          results,
          mx.add(nas_point(machine, core::PathKind::kLinuxOmp, n, spec)));
      const double user = timed_of(
          results,
          mx.add(nas_point(machine, core::PathKind::kAutoMpLinux, n, spec)));
      const double nk = timed_of(
          results,
          mx.add(nas_point(machine, core::PathKind::kAutoMpNautilus, n, spec)));
      table.add_row({std::to_string(n), Table::num(omp), Table::num(user),
                     Table::num(nk)});
    }
    out += table.to_string() + "\n";
  }
  return out;
}

std::string print_cck_normalized(const std::string& title,
                                 const std::string& machine,
                                 const std::vector<int>& scales,
                                 const std::vector<nas::BenchmarkSpec>& suite,
                                 MetricsSink* sink,
                                 const jobs::JobOptions& jopts) {
  jobs::PointMatrix mx;
  build_cck_matrix(mx, machine, scales, suite);
  std::string out;
  if (run_coord_mode(mx, sink, jopts, &out)) return out;
  const auto results = run_points(mx.points(), sink, jopts);

  out += "== " + title + " ==\n";
  out += "   (normalized to Linux-OpenMP = 1.0; higher is better)\n\n";
  for (const auto& spec : suite) {
    const double t1 = timed_of(
        results, mx.add(nas_point(machine, core::PathKind::kLinuxOmp, 1, spec)));
    out += spec.full_name() + "  (t = " + Table::num(t1, 2) +
           " sec single-threaded Linux)\n";
    Table table({"cpus", "Linux AutoMP", "NK AutoMP"});
    for (int n : scales) {
      const double omp = timed_of(
          results,
          mx.add(nas_point(machine, core::PathKind::kLinuxOmp, n, spec)));
      const double user = timed_of(
          results,
          mx.add(nas_point(machine, core::PathKind::kAutoMpLinux, n, spec)));
      const double nk = timed_of(
          results,
          mx.add(nas_point(machine, core::PathKind::kAutoMpNautilus, n, spec)));
      table.add_row({std::to_string(n), Table::num(omp / user),
                     Table::num(omp / nk)});
    }
    out += table.to_string() + "\n";
  }
  return out;
}

std::string print_epcc_figure(const std::string& title,
                              const std::string& machine, int threads,
                              const std::vector<core::PathKind>& paths,
                              const epcc::EpccConfig& config, MetricsSink* sink,
                              const jobs::JobOptions& jopts) {
  jobs::PointMatrix mx;
  build_epcc_figure(mx, machine, threads, paths, config);
  std::string out;
  if (run_coord_mode(mx, sink, jopts, &out)) return out;
  const auto results = run_points(mx.points(), sink, jopts);

  out += "== " + title + " ==\n";
  out += "   (per-construct overhead in microseconds, mean +- sd over " +
         std::to_string(config.outer_reps) + " samples)\n\n";

  std::vector<const std::vector<epcc::Measurement>*> measurements;
  measurements.reserve(paths.size());
  for (auto p : paths) {
    measurements.push_back(
        &results[mx.add(epcc_point(machine, p, threads, config))].epcc);
  }

  const char* groups[] = {"ARRAY", "SCHEDULE", "SYNCH", "TASK"};
  const char* labels[] = {"(a) ARRAY", "(b) SCHEDULE", "(c) SYNCH",
                          "(d) TASK"};
  for (int g = 0; g < 4; ++g) {
    std::vector<std::string> headers{"construct"};
    for (auto p : paths) {
      headers.push_back(std::string(core::path_name(p)) + " us");
      headers.push_back("sd");
    }
    Table table(headers);
    // All paths produce the same construct list; walk the first.
    const auto& first = *measurements[0];
    for (std::size_t i = 0; i < first.size(); ++i) {
      if (first[i].group != groups[g]) continue;
      std::vector<std::string> row{first[i].name};
      for (std::size_t p = 0; p < paths.size(); ++p) {
        row.push_back(Table::num((*measurements[p])[i].overhead_us.mean(), 3));
        row.push_back(
            Table::num((*measurements[p])[i].overhead_us.stddev(), 3));
      }
      table.add_row(std::move(row));
    }
    out += std::string(labels[g]) + "\n" + table.to_string() + "\n";
  }
  return out;
}

}  // namespace kop::harness

// General experiment runner: the library as a command-line tool.
//
//   run_experiment [--bench BT,FT,...|all] [--machine phi|8xeon]
//                  [--paths linux,rtk,pik,automp-linux,automp-nk]
//                  [--threads 1,2,4,...] [--scale <factor>] [--csv]
//                  [--json <path>] [--jobs N] [--cache-dir <dir>]
//                  [--no-cache]
//
// --json writes a kop-metrics v1 artifact (telemetry/metrics.hpp): one
// run entry per (bench, path, threads) cell with the stack's event
// counters -- the same schema the bench/fig* binaries emit.
//
// The sweep is enumerated as jobs::PointSpec values and executed by
// the jobs::JobRunner host-thread pool: --jobs N simulates N points
// concurrently (each on its own engine), --cache-dir reuses previous
// results via the content-addressed cache.  Output is byte-identical
// across --jobs levels and cache states.
//
// Examples:
//   run_experiment --bench BT --threads 1,16,64
//   run_experiment --bench all --machine 8xeon --paths rtk,pik --csv
//   run_experiment --bench all --jobs 8 --cache-dir .kop-cache
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/figures.hpp"
#include "harness/table.hpp"

using namespace kop;

namespace {

std::vector<std::string> split(const std::string& s, char sep = ',') {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

core::PathKind path_by_name(const std::string& name) {
  if (name == "linux") return core::PathKind::kLinuxOmp;
  if (name == "rtk") return core::PathKind::kRtk;
  if (name == "pik") return core::PathKind::kPik;
  if (name == "automp-linux") return core::PathKind::kAutoMpLinux;
  if (name == "automp-nk") return core::PathKind::kAutoMpNautilus;
  throw std::invalid_argument("unknown path '" + name +
                              "' (linux|rtk|pik|automp-linux|automp-nk)");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> benches = {"BT"};
  std::string machine = "phi";
  std::vector<std::string> paths = {"linux", "rtk", "pik"};
  std::vector<int> threads = {1, 8, 64};
  double scale = 1.0;
  bool csv = false;
  std::string json_path;
  harness::jobs::JobOptions jopts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--bench") benches = split(next());
      else if (arg == "--machine") machine = next();
      else if (arg == "--paths") paths = split(next());
      else if (arg == "--threads") {
        threads.clear();
        for (const auto& t : split(next())) threads.push_back(std::stoi(t));
      } else if (arg == "--scale") scale = std::stod(next());
      else if (arg == "--csv") csv = true;
      else if (arg == "--json") json_path = next();
      else if (arg == "--jobs") {
        jopts.jobs = std::stoi(next());
        if (jopts.jobs < 1)
          throw std::invalid_argument("--jobs needs a positive integer");
      } else if (arg == "--cache-dir") jopts.cache_dir = next();
      else if (arg == "--no-cache") jopts.no_cache = true;
      else if (arg == "--help" || arg == "-h") {
        std::puts("usage: run_experiment [--bench B1,B2|all] [--machine m]\n"
                  "         [--paths p1,p2] [--threads n1,n2] [--scale f]\n"
                  "         [--csv] [--json <path>] [--jobs N]\n"
                  "         [--cache-dir <dir>] [--no-cache]");
        return 0;
      } else {
        throw std::invalid_argument("unknown flag " + arg);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  if (benches.size() == 1 && benches[0] == "all") {
    benches.clear();
    for (const auto& b : nas::paper_suite()) benches.push_back(b.name);
  }

  harness::MetricsSink sink("run_experiment");
  try {
    // Enumerate the whole sweep up front ...
    std::vector<nas::BenchmarkSpec> specs;
    for (const auto& bench : benches) {
      specs.push_back(harness::scale_suite(
          {nas::by_name(bench)}, scale,
          std::max(1, static_cast<int>(4 * scale)))[0]);
    }
    harness::jobs::PointMatrix mx;
    auto point = [&](const nas::BenchmarkSpec& spec, const std::string& p,
                     int n) {
      harness::jobs::PointSpec ps;
      ps.kind = harness::jobs::PointSpec::Kind::kNas;
      ps.machine = machine;
      ps.path = path_by_name(p);
      ps.threads = n;
      ps.nas = spec;
      return ps;
    };
    for (const auto& spec : specs)
      for (int n : threads)
        for (const auto& p : paths) mx.add(point(spec, p, n));

    // ... execute it through the pool/cache ...
    harness::jobs::JobRunner runner(jopts);
    const auto results = runner.run(mx.points());
    harness::jobs::require_ok(mx.points(), results);
    std::fprintf(stderr, "[jobs] %s\n", runner.summary(mx.size()).c_str());

    // ... and print tables in enumeration order.
    for (const auto& spec : specs) {
      std::vector<std::string> headers = {"threads"};
      for (const auto& p : paths) headers.push_back(p + " (s)");
      harness::Table table(std::move(headers));
      for (int n : threads) {
        std::vector<std::string> row = {std::to_string(n)};
        for (const auto& p : paths) {
          const auto& r = results[mx.add(point(spec, p, n))];
          row.push_back(harness::Table::num(r.metrics.timed_seconds, 3));
          sink.add(r.metrics);
        }
        table.add_row(std::move(row));
      }
      std::printf("%s on %s (scale %.2f)\n", spec.full_name().c_str(),
                  machine.c_str(), scale);
      std::fputs(csv ? table.to_csv().c_str() : table.to_string().c_str(),
                 stdout);
      std::printf("\n");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!json_path.empty()) {
    try {
      sink.write_file(json_path);
      std::printf("wrote %s (%zu runs)\n", json_path.c_str(),
                  sink.runs().size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}

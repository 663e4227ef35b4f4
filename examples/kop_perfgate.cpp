// CI perf gate for the simulator-core microbenchmarks.  Compares a
// kop-bench v1 result document (simcore_gbench --json) against a
// committed floor file of the same schema whose items_per_sec values
// are minimum acceptable rates and whose allocs_steady values are
// maximum acceptable steady-state allocation counts.
//
//   kop_perfgate --floor bench/simcore_floor.json [--tolerance 0.25]
//                <results.json>
//
// A result passes when, for every bench named in the floor file,
//
//   measured items/sec >= floor items/sec * (1 - tolerance)
//   measured allocs_steady <= floor allocs_steady
//
// Benches present in the results but absent from the floor are ignored
// (new benches can land before their floor is calibrated); benches in
// the floor but missing from the results fail the gate.
//
// Exit code: 0 = all gates pass, 1 = regression or missing bench,
// 2 = usage/schema error.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "harness/jobs/cache.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace {

struct BenchRow {
  double items_per_sec = 0.0;
  double allocs_steady = 0.0;
};

// Loads and schema-validates a kop-bench document; returns false (with
// a message on stderr) on any problem.
bool load_bench_file(const std::string& path,
                     std::map<std::string, BenchRow>* out) {
  std::string text;
  if (!kop::harness::jobs::read_file(path, &text)) {
    std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    return false;
  }
  const auto violations = kop::telemetry::validate_bench_json(text);
  if (!violations.empty()) {
    std::fprintf(stderr, "%s: %zu schema violation(s)\n", path.c_str(),
                 violations.size());
    for (const auto& v : violations)
      std::fprintf(stderr, "  %s\n", v.c_str());
    return false;
  }
  const auto root = kop::telemetry::parse_json(text);
  for (const auto& b : root.find("benches")->array) {
    BenchRow row;
    row.items_per_sec = b.find("items_per_sec")->number;
    row.allocs_steady = b.find("allocs_steady")->number;
    (*out)[b.find("name")->string] = row;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string floor_path;
  std::string results_path;
  double tolerance = 0.25;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--floor" && i + 1 < argc) {
      floor_path = argv[++i];
    } else if (a == "--tolerance" && i + 1 < argc) {
      tolerance = std::atof(argv[++i]);
    } else if (a[0] != '-' && results_path.empty()) {
      results_path = a;
    } else {
      std::fprintf(stderr,
                   "usage: %s --floor FLOOR.json [--tolerance FRAC] "
                   "RESULTS.json\n",
                   argv[0]);
      return 2;
    }
  }
  if (floor_path.empty() || results_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s --floor FLOOR.json [--tolerance FRAC] "
                 "RESULTS.json\n",
                 argv[0]);
    return 2;
  }
  if (tolerance < 0.0 || tolerance >= 1.0) {
    std::fprintf(stderr, "--tolerance must be in [0, 1)\n");
    return 2;
  }

  std::map<std::string, BenchRow> floor;
  std::map<std::string, BenchRow> results;
  if (!load_bench_file(floor_path, &floor) ||
      !load_bench_file(results_path, &results)) {
    return 2;
  }

  int failures = 0;
  std::printf("%-22s %14s %14s %8s  %s\n", "bench", "measured/s", "gate/s",
              "allocs", "verdict");
  for (const auto& [name, f] : floor) {
    const auto it = results.find(name);
    if (it == results.end()) {
      ++failures;
      std::printf("%-22s %14s %14.0f %8s  MISSING\n", name.c_str(), "-",
                  f.items_per_sec * (1.0 - tolerance), "-");
      continue;
    }
    const BenchRow& m = it->second;
    const double gate = f.items_per_sec * (1.0 - tolerance);
    const bool rate_ok = m.items_per_sec >= gate;
    const bool alloc_ok = m.allocs_steady <= f.allocs_steady;
    if (!rate_ok || !alloc_ok) ++failures;
    std::printf("%-22s %14.0f %14.0f %8.0f  %s\n", name.c_str(),
                m.items_per_sec, gate, m.allocs_steady,
                rate_ok && alloc_ok ? "ok"
                : !rate_ok          ? "RATE-REGRESSION"
                                    : "ALLOC-REGRESSION");
  }
  if (failures > 0) {
    std::printf("perfgate: %d failure(s) vs %s (tolerance %.0f%%)\n", failures,
                floor_path.c_str(), tolerance * 100.0);
    return 1;
  }
  std::printf("perfgate: all %zu gated benches ok\n", floor.size());
  return 0;
}

// kop artifact linter: validates JSON files emitted by run_experiment
// --json, the bench/fig* binaries, omp_profiler, and simcore_gbench
// against their versioned schemas (telemetry/metrics.hpp).  The root
// "schema" field selects the validator: "kop-metrics" documents get
// the full run-record check, "kop-bench" documents the microbenchmark
// throughput-record check.  CI runs this over every artifact the
// bench-smoke and perf-smoke jobs produce.
//
//   metrics_lint <file.json> [<file.json> ...]
//
// Cache entries (documents recording a point, ResultCache::identity)
// are additionally checked for duplicate points: two entries in the
// same directory recording the same canonical point means the cache
// holds two answers for one question (kop_baseline compares neither),
// so the lint fails.
//
// Exit code: 0 if every file validates, 1 otherwise.
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "harness/jobs/cache.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace jobs = kop::harness::jobs;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <file.json> [<file.json> ...]\n", argv[0]);
    return 2;
  }
  int bad = 0;
  // (directory, canonical point) -> first file that recorded it.
  std::map<std::pair<std::string, std::string>, std::string> points_seen;
  for (int i = 1; i < argc; ++i) {
    std::string text;
    if (!jobs::read_file(argv[i], &text)) {
      std::fprintf(stderr, "%s: cannot open\n", argv[i]);
      ++bad;
      continue;
    }
    // Dispatch on the root "schema" field; unknown/missing schemas fall
    // through to the kop-metrics validator, whose error message names
    // the expected schema.
    bool is_bench = false;
    try {
      const auto peek = kop::telemetry::parse_json(text);
      const auto* schema = peek.find("schema");
      is_bench = schema != nullptr && schema->is_string() &&
                 schema->string == kop::telemetry::kBenchSchemaName;
    } catch (const kop::telemetry::JsonParseError&) {
      // Malformed JSON: let the validator report it.
    }
    const auto violations =
        is_bench ? kop::telemetry::validate_bench_json(text)
                 : kop::telemetry::validate_metrics_json(text);
    if (!violations.empty()) {
      ++bad;
      std::printf("%s: %zu violation(s)\n", argv[i], violations.size());
      for (const auto& v : violations) std::printf("  %s\n", v.c_str());
      continue;
    }
    if (is_bench) {
      std::printf("%s: OK (kop-bench)\n", argv[i]);
      continue;
    }
    // Duplicate-point check for cache entries (validate passed, so the
    // text parses).
    const auto root = kop::telemetry::parse_json(text);
    if (const std::string* point = jobs::ResultCache::identity(root).point) {
      const std::string dir =
          std::filesystem::path(argv[i]).parent_path().string();
      const auto key = std::make_pair(dir, *point);
      const auto it = points_seen.find(key);
      if (it != points_seen.end()) {
        ++bad;
        std::printf("%s: duplicate point (same canonical form as %s)\n",
                    argv[i], it->second.c_str());
        continue;
      }
      points_seen.emplace(key, argv[i]);
    }
    std::printf("%s: OK\n", argv[i]);
  }
  return bad == 0 ? 0 : 1;
}

// Worker-cache merge driver: unions the --cache-dir outputs of a
// distributed sweep (fig* --coord <addr>, kop_worker) into one result
// cache the figure binary replays from.
//
//   kop_merge --into <dir> [--expect <manifest>] [--json <path>]
//             <worker-dir> [<worker-dir> ...]
//
// Every entry is re-validated on the way in (kop-metrics v1 schema,
// cost-model fingerprint, recorded identity vs filename); `--expect`
// takes a coverage manifest (kop_sweepd --manifest) and reports
// coverage against it.
// Exit code: 0 when the merge is clean and complete, 1 otherwise.
//
//   kop_merge --fingerprint
//
// prints this build's cache namespace (`<cost-model fingerprint>-
// schema<version>`) -- the key CI uses for its persisted bench cache.
//
//   kop_merge --digest <cache-dir>
//
// prints an order-independent content digest of the cache -- equal
// digests mean two sweeps produced byte-identical results (the
// determinism check behind the crash-and-reclaim CI smoke).
#include <cstdio>
#include <fstream>
#include <string>

#include "harness/jobs/merge.hpp"
#include "harness/jobs/point.hpp"
#include "telemetry/metrics.hpp"

using namespace kop;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --into <dir> [--expect <manifest>]\n"
               "          [--json <path>] <worker-dir> [<worker-dir> ...]\n"
               "       %s --digest <cache-dir>\n"
               "       %s --fingerprint\n",
               argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  harness::jobs::MergeOptions opts;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fingerprint") {
      std::printf("%s-schema%d\n",
                  harness::jobs::hex16(
                      harness::jobs::cost_model_fingerprint())
                      .c_str(),
                  telemetry::kMetricsSchemaVersion);
      return 0;
    } else if (arg == "--digest" && i + 1 < argc) {
      try {
        std::printf("%s\n",
                    harness::jobs::hex16(
                        harness::jobs::cache_digest(argv[++i]))
                        .c_str());
        return 0;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
      }
    } else if (arg == "--into" && i + 1 < argc) {
      opts.dest = argv[++i];
    } else if (arg == "--expect" && i + 1 < argc) {
      opts.expect_path = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--help" || arg == "-h" || arg.rfind("--", 0) == 0) {
      return usage(argv[0]);
    } else {
      opts.sources.push_back(arg);
    }
  }
  if (opts.dest.empty() || opts.sources.empty()) return usage(argv[0]);

  try {
    const auto report = harness::jobs::merge_caches(opts);
    std::fputs(report.text().c_str(), stdout);
    if (!json_path.empty()) {
      std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
      out << report.json();
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
        return 1;
      }
    }
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

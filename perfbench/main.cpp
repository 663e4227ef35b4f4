// kopbench: run one benchmark workload and print its metrics.
//
//   kopbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--data <dir>] [--workdir <dir>] [--trace-out <file>]
//            [--minimal]
//   kopbench --selftest [--workdir <dir>]
//
// Prints one line per metric ("name value unit"), notes, and any
// correctness violation, then as its last line one JSON object with
// every metric it measured.  perfbench/run.py builds this binary and
// narrows that object to the metrics BENCHMARK.json declares.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: kopbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n"
               "                [--data <dir>] [--workdir <dir>] "
               "[--trace-out <file>] [--minimal]\n"
               "       kopbench --selftest [--workdir <dir>]\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string workdir;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has) {
      o.trace = std::string(argv[++i]) != "0";
    } else if (a == "--data" && has) {
      o.data_dir = argv[++i];
    } else if (a == "--workdir" && has) {
      workdir = argv[++i];
    } else if (a == "--trace-out" && has) {
      o.trace_path = argv[++i];
    } else if (a == "--minimal") {
      o.minimal = true;
    } else if (a == "--selftest") {
      selftest = true;
    } else {
      return usage();
    }
  }
  if (!selftest && o.workload.empty()) return usage();
  if (!workdir.empty()) {
    std::filesystem::create_directories(workdir);
    if (::chdir(workdir.c_str()) != 0) {
      std::fprintf(stderr, "error: cannot enter %s\n", workdir.c_str());
      return 1;
    }
  }

  if (selftest) {
    const auto problems = perfbench::fault_checks();
    for (const auto& p : problems) std::printf("VIOLATION: %s\n", p.c_str());
    std::printf("fault checks: %s\n", problems.empty() ? "ok" : "FAILED");
    return problems.empty() ? 0 : 1;
  }

  perfbench::Report rep;
  try {
    perfbench::run_workload(o, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  rep.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");

  std::printf("kopbench %s seed=%llu trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
  for (const auto& [name, m] : rep.metrics)
    std::printf("  %-30s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  for (const auto& n : rep.notes) std::printf("  note: %s\n", n.c_str());
  for (const auto& v : rep.violations) std::printf("VIOLATION: %s\n", v.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              rep.correct() ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  bool first = true;
  for (const auto& [name, m] : rep.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                json_escape(name).c_str(), m.value, json_escape(m.unit).c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

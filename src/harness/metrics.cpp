#include "harness/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "hw/topology.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace kop::harness {

void write_run_json(telemetry::JsonWriter& w, const RunMetrics& run) {
  using telemetry::Counter;
  w.begin_object();
  w.key("label").value(run.label);
  w.key("machine").value(run.machine);
  w.key("path").value(run.path);
  w.key("threads").value(run.threads);
  w.key("timing").begin_object();
  w.key("timed_seconds").value(run.timed_seconds);
  w.key("init_seconds").value(run.init_seconds);
  w.end_object();
  w.key("counters").begin_object();
  for (int c = 0; c < telemetry::kNumCounters; ++c) {
    w.key(telemetry::counter_name(static_cast<Counter>(c)))
        .value(run.counters.totals[c]);
  }
  w.end_object();
  if (run.include_per_cpu && !run.counters.per_cpu.empty()) {
    w.key("per_cpu").begin_object();
    for (int c = 0; c < telemetry::kNumCounters; ++c) {
      w.key(telemetry::counter_name(static_cast<Counter>(c))).begin_array();
      for (const auto& cpu : run.counters.per_cpu) w.value(cpu[c]);
      w.end_array();
    }
    w.end_object();
    // Per-NUMA-zone aggregation of the same rows.  Derived (never
    // parsed back: parse_run_json rebuilds it from per_cpu on the next
    // serialization), so cache store->load->store stays byte-identical.
    std::vector<int> cpu_zone;
    try {
      const hw::MachineConfig machine = hw::machine_by_name(run.machine);
      if (machine.num_cpus == static_cast<int>(run.counters.per_cpu.size())) {
        cpu_zone.resize(run.counters.per_cpu.size());
        for (std::size_t cpu = 0; cpu < cpu_zone.size(); ++cpu)
          cpu_zone[cpu] = machine.zone_of_cpu(static_cast<int>(cpu));
      }
    } catch (const std::exception&) {
      // Unknown machine name: no topology to aggregate over.
    }
    if (!cpu_zone.empty()) {
      const int nzones =
          1 + *std::max_element(cpu_zone.begin(), cpu_zone.end());
      w.key("zones").begin_object();
      for (int c = 0; c < telemetry::kNumCounters; ++c) {
        std::vector<std::uint64_t> sums(static_cast<std::size_t>(nzones), 0);
        for (std::size_t cpu = 0; cpu < cpu_zone.size(); ++cpu)
          sums[static_cast<std::size_t>(cpu_zone[cpu])] +=
              run.counters.per_cpu[cpu][c];
        w.key(telemetry::counter_name(static_cast<Counter>(c))).begin_array();
        for (std::uint64_t v : sums) w.value(v);
        w.end_array();
      }
      w.end_object();
    }
  }
  if (!run.constructs.empty()) {
    w.key("constructs").begin_object();
    for (const auto& [name, stat] : run.constructs) {
      w.key(name).begin_object();
      w.key("count").value(stat.count);
      w.key("total_us").value(stat.total_us);
      w.key("mean_us").value(stat.mean_us);
      w.end_object();
    }
    w.end_object();
  }
  w.end_object();
}

bool parse_run_json(const telemetry::JsonValue& run, RunMetrics* out) {
  using telemetry::Counter;
  using telemetry::JsonValue;
  if (!run.is_object()) return false;
  const JsonValue* label = run.find("label");
  const JsonValue* machine = run.find("machine");
  const JsonValue* path = run.find("path");
  const JsonValue* threads = run.find("threads");
  const JsonValue* timing = run.find("timing");
  const JsonValue* counters = run.find("counters");
  if (label == nullptr || !label->is_string() || machine == nullptr ||
      !machine->is_string() || path == nullptr || !path->is_string() ||
      threads == nullptr || !threads->is_number() || timing == nullptr ||
      !timing->is_object() || counters == nullptr || !counters->is_object()) {
    return false;
  }
  RunMetrics m;
  m.label = label->string;
  m.machine = machine->string;
  m.path = path->string;
  m.threads = static_cast<int>(threads->number);
  const JsonValue* timed = timing->find("timed_seconds");
  const JsonValue* init = timing->find("init_seconds");
  if (timed == nullptr || !timed->is_number() || init == nullptr ||
      !init->is_number()) {
    return false;
  }
  m.timed_seconds = timed->number;
  m.init_seconds = init->number;
  if (counters->object.size() !=
      static_cast<std::size_t>(telemetry::kNumCounters)) {
    return false;
  }
  for (int c = 0; c < telemetry::kNumCounters; ++c) {
    const auto& [key, val] = counters->object[static_cast<std::size_t>(c)];
    if (key != telemetry::counter_name(static_cast<Counter>(c)) ||
        !val.is_number()) {
      return false;
    }
    m.counters.totals[c] = static_cast<std::uint64_t>(val.number);
  }
  if (const JsonValue* per_cpu = run.find("per_cpu")) {
    if (!per_cpu->is_object() || per_cpu->object.empty() ||
        !per_cpu->object[0].second.is_array()) {
      return false;
    }
    const std::size_t cpus = per_cpu->object[0].second.array.size();
    m.counters.per_cpu.resize(cpus);
    for (int c = 0; c < telemetry::kNumCounters; ++c) {
      const JsonValue* arr =
          per_cpu->find(telemetry::counter_name(static_cast<Counter>(c)));
      if (arr == nullptr || !arr->is_array() || arr->array.size() != cpus) {
        return false;
      }
      for (std::size_t cpu = 0; cpu < cpus; ++cpu) {
        m.counters.per_cpu[cpu][c] =
            static_cast<std::uint64_t>(arr->array[cpu].number);
      }
    }
    m.include_per_cpu = true;
  }
  if (const JsonValue* constructs = run.find("constructs")) {
    if (!constructs->is_object()) return false;
    for (const auto& [name, c] : constructs->object) {
      const JsonValue* count = c.find("count");
      const JsonValue* total = c.find("total_us");
      const JsonValue* mean = c.find("mean_us");
      if (count == nullptr || !count->is_number() || total == nullptr ||
          !total->is_number() || mean == nullptr || !mean->is_number()) {
        return false;
      }
      ConstructStat stat;
      stat.count = static_cast<std::uint64_t>(count->number);
      stat.total_us = total->number;
      stat.mean_us = mean->number;
      m.constructs[name] = stat;
    }
  }
  *out = std::move(m);
  return true;
}

std::string MetricsSink::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("schema").value(telemetry::kMetricsSchemaName);
  w.key("version").value(telemetry::kMetricsSchemaVersion);
  w.key("generator").value(generator_);
  w.key("runs").begin_array();
  for (const auto& run : runs_) write_run_json(w, run);
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

void MetricsSink::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << to_json();
  if (!out) throw std::runtime_error("write failed: " + path);
}

std::string format_counters_table(const telemetry::Snapshot& snap) {
  std::string out;
  char line[96];
  std::snprintf(line, sizeof(line), "%-22s %14s\n", "event", "count");
  out += line;
  out += std::string(37, '-') + "\n";
  for (int c = 0; c < telemetry::kNumCounters; ++c) {
    if (snap.totals[c] == 0) continue;
    std::snprintf(line, sizeof(line), "%-22s %14" PRIu64 "\n",
                  telemetry::counter_name(static_cast<telemetry::Counter>(c)),
                  snap.totals[c]);
    out += line;
  }
  return out;
}

FigOptions parse_fig_options(int argc, char** argv) {
  FigOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      opts.json_path = argv[++i];
    } else if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      opts.jobs.jobs = std::atoi(argv[++i]);
      if (opts.jobs.jobs < 1) {
        std::fprintf(stderr, "--jobs needs a positive integer\n");
        opts.ok = false;
        return opts;
      }
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      opts.jobs.cache_dir = argv[++i];
    } else if (arg == "--no-cache") {
      opts.jobs.no_cache = true;
    } else if (arg == "--coord" && i + 1 < argc) {
      opts.jobs.coord_socket = argv[++i];
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--json <path>] [--quick] [--jobs N]\n"
          "          [--cache-dir <dir>] [--no-cache] [--coord <addr>]\n"
          "  --json <path>    write a kop-metrics v1 JSON artifact\n"
          "  --quick          reduced problem sizes (CI smoke)\n"
          "  --jobs N         host worker threads (default: all cores)\n"
          "  --cache-dir <d>  content-addressed result cache directory\n"
          "  --no-cache       ignore --cache-dir, force re-simulation\n"
          "  --coord <addr>   lease points from a kop_sweepd daemon at\n"
          "                   <addr> -- unix socket path or host:port\n"
          "                   (a dead worker's points are re-queued;\n"
          "                   merge worker caches with kop_merge)\n",
          argv[0]);
      opts.ok = false;
      return opts;
    }
  }
  return opts;
}

int finish_figure(const FigOptions& opts, const MetricsSink& sink) {
  if (!opts.ok) return 2;
  if (opts.json_path.empty()) return 0;
  try {
    sink.write_file(opts.json_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("wrote %s (%zu runs)\n", opts.json_path.c_str(),
              sink.runs().size());
  return 0;
}

int fail_figure(const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}

}  // namespace kop::harness

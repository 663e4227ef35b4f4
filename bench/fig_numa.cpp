// NUMA-scheduler microbenchmark: flat ring stealing vs the
// hierarchical topology walk (KOMP_NUMA_SCHED=hier), EPCC taskbench on
// PHI and 8XEON.  The master-spawn patterns (MASTER_TASK and friends)
// concentrate every task on one deque, so idle threads in other zones
// must steal across the machine -- exactly the traffic the
// hierarchical victim order is meant to keep inside a zone.
//
// Reported per (machine, threads): timed seconds and the
// task_steals_local / task_steals_remote split for flat, hier, and
// hier + migration-on-next-touch; for 8XEON also the per-zone remote
// traffic and the flat/hier remote-steal reduction ratio the CI numa
// gate floors at 2x (bench/numa_floor.json).
//
// Both schedulers run identical points (same tasks, same virtual
// work), so the reduction compares equal total work.  This binary
// sweeps every mode in one run, so it takes no --numa-sched or
// --numa-migrate (abl_numa_firsttouch does).  --bench-json
// additionally writes a kop-bench v1 document with the reduction
// ratios for examples/kop_perfgate.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "harness/figures.hpp"
#include "harness/table.hpp"
#include "hw/topology.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

using namespace kop;

namespace {

struct Mode {
  const char* name;
  bool hier;
  bool migrate;
};

constexpr Mode kModes[] = {
    {"flat", false, false},
    {"hier", true, false},
    {"hier+migrate", true, true},
};

harness::jobs::PointSpec point(const std::string& machine, int threads,
                               const Mode& mode, bool quick) {
  harness::jobs::PointSpec p;
  p.kind = harness::jobs::PointSpec::Kind::kEpcc;
  p.machine = machine;
  p.path = core::PathKind::kLinuxOmp;
  p.threads = threads;
  p.epcc_part = harness::EpccPart::kTask;
  p.epcc.outer_reps = quick ? 2 : 4;
  p.epcc.tasks_per_thread = quick ? 16 : 32;
  p.epcc.tree_depth = quick ? 4 : 6;
  p.numa_sched_hier = mode.hier;
  p.numa_migrate = mode.migrate;
  return p;
}

// Migration demo: EPCC tasks charge no array traffic, so the next-touch
// policy is shown on a NAS point instead -- RTK's immediate single-zone
// allocation (first_touch=0, the §6.3 pathology) with and without
// --numa-migrate re-homing the slices on first access.
harness::jobs::PointSpec mig_point(int threads, bool migrate, bool quick) {
  harness::jobs::PointSpec p;
  p.kind = harness::jobs::PointSpec::Kind::kNas;
  p.machine = "8xeon";
  p.path = core::PathKind::kRtk;
  p.threads = threads;
  p.first_touch = 0;  // immediate single-zone placement
  p.nas = harness::scale_suite({nas::cg()}, quick ? 0.35 : 1.0,
                               quick ? 2 : 3)[0];
  p.numa_migrate = migrate;
  return p;
}

std::uint64_t total(const harness::RunMetrics& m, telemetry::Counter c) {
  return m.counters.totals[static_cast<int>(c)];
}

// Per-zone sums of one counter's per_cpu rows (empty when the snapshot
// carries no per-CPU data or the row count is not the machine's).
std::vector<std::uint64_t> by_zone(const harness::RunMetrics& m,
                                   const hw::MachineConfig& machine,
                                   telemetry::Counter c) {
  std::vector<std::uint64_t> sums;
  if (static_cast<int>(m.counters.per_cpu.size()) != machine.num_cpus)
    return sums;
  sums.resize(machine.zones.size(), 0);
  for (int cpu = 0; cpu < machine.num_cpus; ++cpu) {
    sums[static_cast<std::size_t>(machine.zone_of_cpu(cpu))] +=
        m.counters.per_cpu[static_cast<std::size_t>(cpu)]
                          [static_cast<int>(c)];
  }
  return sums;
}

std::string zone_vector(const std::vector<std::uint64_t>& sums) {
  std::string out = "[";
  for (std::size_t z = 0; z < sums.size(); ++z) {
    if (z != 0) out += " ";
    out += std::to_string(sums[z]);
  }
  return out + "]";
}

std::string bench_json(std::uint64_t flat_remote_phi,
                       std::uint64_t hier_remote_phi,
                       std::uint64_t flat_remote_8xeon,
                       std::uint64_t hier_remote_8xeon) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("schema").value(telemetry::kBenchSchemaName);
  w.key("version").value(telemetry::kBenchSchemaVersion);
  w.key("generator").value("fig_numa");
  w.key("benches").begin_array();
  // items = flat remote steals, seconds = hier remote steals, so
  // items_per_sec is the reduction ratio the gate floors.  A zero hier
  // count divides as 1 (the ratio is then simply the flat count).
  const auto emit = [&w](const char* name, std::uint64_t flat,
                         std::uint64_t hier) {
    w.begin_object();
    w.key("name").value(name);
    w.key("unit").value("x");
    w.key("items").value(flat);
    w.key("seconds").value(hier == 0 ? 1.0 : static_cast<double>(hier));
    w.key("items_per_sec")
        .value(static_cast<double>(flat) /
               (hier == 0 ? 1.0 : static_cast<double>(hier)));
    w.key("allocs_steady").value(std::uint64_t{0});
    w.end_object();
  };
  emit("remote_steal_reduction_phi", flat_remote_phi, hier_remote_phi);
  emit("remote_steal_reduction_8xeon", flat_remote_8xeon, hier_remote_8xeon);
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // --bench-json is specific to this binary: strip it before handing
  // the rest to the shared figure-option parser.
  std::string bench_path;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--bench-json" && i + 1 < argc) {
      bench_path = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  const auto opts =
      harness::parse_fig_options(static_cast<int>(rest.size()), rest.data());
  if (!opts.ok) {
    std::fprintf(stderr,
                 "  --bench-json <p> also write a kop-bench v1 document with\n"
                 "                   the remote-steal reduction ratios\n"
                 "                   (gated by kop_perfgate vs\n"
                 "                   bench/numa_floor.json)\n");
    return 2;
  }
  std::printf("== NUMA scheduler: flat ring vs hierarchical stealing "
              "(EPCC taskbench) ==\n");
  std::printf("   task_steals split by victim zone; migrate adds "
              "next-touch page migration\n\n");

  const std::vector<std::pair<std::string, std::vector<int>>> machines = {
      {"phi", opts.quick ? std::vector<int>{16} : std::vector<int>{16, 64}},
      {"8xeon",
       opts.quick ? std::vector<int>{96} : std::vector<int>{48, 96, 192}},
  };

  const std::vector<int> mig_scales =
      opts.quick ? std::vector<int>{96} : std::vector<int>{48, 96, 192};

  harness::jobs::PointMatrix mx;
  for (const auto& [machine, scales] : machines) {
    for (int n : scales) {
      for (const Mode& mode : kModes) mx.add(point(machine, n, mode, opts.quick));
    }
  }
  for (int n : mig_scales) {
    mx.add(mig_point(n, false, opts.quick));
    mx.add(mig_point(n, true, opts.quick));
  }
  harness::MetricsSink sink("fig_numa");
  std::string sharded;
  if (harness::run_shard_mode(mx, &sink, opts.jobs, &sharded)) {
    std::fputs(sharded.c_str(), stdout);
    return harness::finish_figure(opts, sink);
  }
  harness::jobs::JobRunner runner(opts.jobs);
  const auto results = runner.run(mx.points());
  harness::jobs::require_ok(mx.points(), results);
  std::fprintf(stderr, "[jobs] %s\n", runner.summary(mx.size()).c_str());

  for (const auto& r : results) {
    harness::RunMetrics m = r.metrics;
    m.include_per_cpu = true;  // the artifact carries per-zone traffic
    sink.add(m);
  }

  std::uint64_t flat_remote[2] = {0, 0};  // [0]=phi, [1]=8xeon
  std::uint64_t hier_remote[2] = {0, 0};
  for (std::size_t mi = 0; mi < machines.size(); ++mi) {
    const auto& [machine, scales] = machines[mi];
    const hw::MachineConfig config = hw::machine_by_name(machine);
    harness::Table t(
        {"threads", "sched", "seconds", "local", "remote", "migrations"});
    for (int n : scales) {
      for (const Mode& mode : kModes) {
        const auto& m =
            results[mx.add(point(machine, n, mode, opts.quick))].metrics;
        const std::uint64_t local =
            total(m, telemetry::Counter::kTaskStealsLocal);
        const std::uint64_t remote =
            total(m, telemetry::Counter::kTaskStealsRemote);
        t.add_row({std::to_string(n), mode.name,
                   harness::Table::seconds(m.timed_seconds),
                   std::to_string(local), std::to_string(remote),
                   std::to_string(
                       total(m, telemetry::Counter::kPageMigrations))});
        if (mode.hier && !mode.migrate) {
          hier_remote[mi] += remote;
        } else if (!mode.hier) {
          flat_remote[mi] += remote;
        }
      }
    }
    std::printf("%s (%d zones)\n%s\n", machine.c_str(),
                static_cast<int>(config.zones.size()), t.to_string().c_str());

    // Per-zone remote traffic at the machine's largest team: where do
    // the cross-zone steals land once the walk prefers local victims?
    const int top = scales.back();
    for (const Mode& mode : kModes) {
      const auto& m =
          results[mx.add(point(machine, top, mode, opts.quick))].metrics;
      const auto zones =
          by_zone(m, config, telemetry::Counter::kTaskStealsRemote);
      if (zones.empty()) continue;
      std::printf("  remote steals by thief zone, t=%d %-12s %s\n", top,
                  mode.name, zone_vector(zones).c_str());
    }
    const double denom =
        hier_remote[mi] == 0 ? 1.0 : static_cast<double>(hier_remote[mi]);
    std::printf("  remote-steal reduction (flat/hier): %s\n\n",
                harness::Table::num(static_cast<double>(flat_remote[mi]) /
                                    denom)
                    .c_str());
  }
  {
    harness::Table t({"threads", "placement", "seconds", "migrations"});
    for (int n : mig_scales) {
      const auto& off = results[mx.add(mig_point(n, false, opts.quick))].metrics;
      const auto& on = results[mx.add(mig_point(n, true, opts.quick))].metrics;
      t.add_row({std::to_string(n), "immediate",
                 harness::Table::seconds(off.timed_seconds),
                 std::to_string(
                     total(off, telemetry::Counter::kPageMigrations))});
      t.add_row({std::to_string(n), "next-touch",
                 harness::Table::seconds(on.timed_seconds),
                 std::to_string(
                     total(on, telemetry::Counter::kPageMigrations))});
    }
    std::printf("migration-on-next-touch: %s immediate allocation on 8xeon\n"
                "(first_touch=0) with and without --numa-migrate\n%s\n",
                mig_point(1, false, opts.quick).nas.full_name().c_str(),
                t.to_string().c_str());
  }
  std::printf("Expected: hier cuts 8XEON remote steals >= 2x at equal\n"
              "total work; next-touch re-homes the slices that immediate\n"
              "allocation stranded in one zone.\n");

  if (!bench_path.empty()) {
    std::ofstream out(bench_path);
    if (!out) {
      std::fprintf(stderr, "cannot open for writing: %s\n",
                   bench_path.c_str());
      return 1;
    }
    out << bench_json(flat_remote[0], hier_remote[0], flat_remote[1],
                      hier_remote[1]);
    if (!out) {
      std::fprintf(stderr, "write failed: %s\n", bench_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", bench_path.c_str());
  }
  return harness::finish_figure(opts, sink);
}

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
// traffic and the flat/hier remote-steal ratio.  The ratio is reported,
// not gated: a steal count says nothing about time.
//
// Both schedulers run identical points (same tasks, same virtual
// work), so the ratio compares equal total work.  This binary sweeps
// every mode in one run, so it takes no --numa-sched or --numa-migrate
// (abl_numa_firsttouch does).
#include <cstdio>
#include <string>
#include <vector>

#include "harness/figures.hpp"
#include "harness/table.hpp"
#include "hw/topology.hpp"
#include "telemetry/counters.hpp"

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

}  // namespace

int main(int argc, char** argv) try {
  const auto opts = harness::parse_fig_options(argc, argv);
  if (!opts.ok) return 2;
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
  std::string note;
  if (harness::run_coord_mode(mx, &sink, opts.jobs, &note)) {
    std::fputs(note.c_str(), stdout);
    return harness::finish_figure(opts, sink);
  }
  const auto results = harness::run_points(mx.points(), nullptr, opts.jobs);
  for (const auto& r : results) {
    harness::RunMetrics m = r.metrics;
    m.include_per_cpu = true;  // the artifact carries per-zone traffic
    sink.add(m);
  }

  for (const auto& [machine, scales] : machines) {
    std::uint64_t flat_remote = 0;
    std::uint64_t hier_remote = 0;
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
          hier_remote += remote;
        } else if (!mode.hier) {
          flat_remote += remote;
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
        hier_remote == 0 ? 1.0 : static_cast<double>(hier_remote);
    std::printf("  remote-steal ratio (flat/hier): %s\n\n",
                harness::Table::num(static_cast<double>(flat_remote) /
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
  std::printf("Expected: both orders complete equal total work; the\n"
              "remote-steal ratio is reported, not claimed.  Next-touch\n"
              "re-homes the slices that immediate allocation stranded in\n"
              "one zone.\n");
  return harness::finish_figure(opts, sink);
} catch (const std::exception& e) {
  return kop::harness::fail_figure(e);
}

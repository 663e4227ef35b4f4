// Ablation: §6.3 -- Nautilus's immediate single-zone allocation vs the
// first-touch-at-2MB extension on 8XEON.  "Immediate allocation
// results in such arrays being assigned to a single NUMA zone,
// lowering performance when different slices are assigned to CPUs in
// different zones."
//
// --numa-sched flat|hier and --numa-migrate rerun the ablation under
// the hierarchical steal order and migration-on-next-touch placement.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/figures.hpp"
#include "harness/table.hpp"

using namespace kop;

namespace {

/// This binary's own flags, which the shared figure options lack.
struct NumaFlags {
  bool sched_hier = false;  // --numa-sched hier
  bool migrate = false;     // --numa-migrate
};

harness::jobs::PointSpec point(const nas::BenchmarkSpec& spec, int threads,
                               int first_touch, const NumaFlags& numa) {
  harness::jobs::PointSpec p;
  p.kind = harness::jobs::PointSpec::Kind::kNas;
  p.machine = "8xeon";
  p.path = core::PathKind::kRtk;
  p.threads = threads;
  p.first_touch = first_touch;  // the ablation forces both settings
  p.numa_sched_hier = numa.sched_hier;
  p.numa_migrate = numa.migrate;
  p.nas = spec;
  return p;
}

}  // namespace

int main(int argc, char** argv) try {
  // Strip this binary's flags before handing the rest to the shared
  // figure-option parser.
  NumaFlags numa;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--numa-sched" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v != "flat" && v != "hier") {
        std::fprintf(stderr, "--numa-sched needs flat or hier\n");
        return 2;
      }
      numa.sched_hier = v == "hier";
    } else if (arg == "--numa-migrate") {
      numa.migrate = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  const auto opts =
      harness::parse_fig_options(static_cast<int>(rest.size()), rest.data());
  if (!opts.ok) {
    std::fprintf(stderr,
                 "  --numa-sched <m> task-steal victim order on komp paths:\n"
                 "                   flat (default ring) or hier (topology-tree\n"
                 "                   walk, same zone first then ascending SLIT\n"
                 "                   distance; KOMP_NUMA_SCHED=hier)\n"
                 "  --numa-migrate   migration-on-next-touch placement: each\n"
                 "                   allocation's first access per slice\n"
                 "                   re-homes the slice to the toucher's\n"
                 "                   preferred DRAM zone\n");
    return 2;
  }
  std::printf("== Ablation: Nautilus immediate allocation vs "
              "first-touch-at-2MB on 8XEON (§6.3) ==\n");
  std::printf("   RTK timed seconds for MG-C and CG-C\n\n");

  const auto suite = harness::scale_suite({nas::mg(), nas::cg()},
                                          opts.quick ? 0.5 : 8.0 / 3.0,
                                          opts.quick ? 2 : 3);
  const auto scales = opts.quick ? std::vector<int>{24, 48}
                                 : std::vector<int>{24, 48, 96, 192};

  harness::jobs::PointMatrix mx;
  for (const auto& spec : suite) {
    for (int n : scales) {
      mx.add(point(spec, n, 0, numa));
      mx.add(point(spec, n, 1, numa));
    }
  }
  harness::MetricsSink sink("abl_numa_firsttouch");
  std::string note;
  if (harness::run_coord_mode(mx, &sink, opts.jobs, &note)) {
    std::fputs(note.c_str(), stdout);
    return harness::finish_figure(opts, sink);
  }
  const auto results = harness::run_points(mx.points(), &sink, opts.jobs);

  for (const auto& spec : suite) {
    harness::Table t({"cpus", "immediate", "first-touch", "speedup"});
    for (int n : scales) {
      const double imm =
          results[mx.add(point(spec, n, 0, numa))].metrics.timed_seconds;
      const double ft =
          results[mx.add(point(spec, n, 1, numa))].metrics.timed_seconds;
      t.add_row({std::to_string(n), harness::Table::seconds(imm),
                 harness::Table::seconds(ft), harness::Table::num(imm / ft)});
    }
    std::printf("%s\n%s\n", spec.full_name().c_str(), t.to_string().c_str());
  }
  std::printf("Expected: parity within one socket (24 CPUs), growing\n"
              "first-touch advantage at 2-8 sockets.\n");
  return harness::finish_figure(opts, sink);
} catch (const std::exception& e) {
  return kop::harness::fail_figure(e);
}

#include <algorithm>

#include "nas/exec.hpp"

namespace kop::nas {

namespace {
constexpr int kParts = 64;  // first-touch partition granularity
}

cck::Loop to_cck_loop(const LoopSpec& spec, hw::MemRegion* region) {
  cck::Loop l;
  l.name = spec.name;
  l.trip = spec.trip;
  l.omp.parallel_for = true;
  l.omp.schedule = spec.schedule;
  l.omp.chunk = spec.chunk;
  if (spec.needs_object_privatization)
    l.omp.private_vars.push_back("work_" + spec.name);

  cck::Stmt body;
  body.label = spec.name + ".body";
  body.est_cost_ns = spec.per_iter_ns;
  body.accesses.push_back(cck::read(spec.region));
  body.accesses.push_back(cck::write(spec.region));
  if (spec.needs_object_privatization) {
    // The per-thread work array: whole-object accesses every
    // iteration (not elementwise) -- carried unless privatized.
    body.accesses.push_back(
        cck::Access{"work_" + spec.name, /*write=*/true,
                    /*per_iteration=*/false, /*carried=*/false});
    body.accesses.push_back(
        cck::Access{"work_" + spec.name, /*write=*/false,
                    /*per_iteration=*/false, /*carried=*/false});
  }
  l.body.push_back(std::move(body));

  l.exec.region = region;
  l.exec.per_iter_ns = spec.per_iter_ns;
  l.exec.mem_fraction = spec.mem_fraction;
  l.exec.bytes_per_iter = spec.bytes_per_iter;
  l.exec.pattern = spec.pattern;
  l.exec.skew = spec.skew;
  return l;
}

cck::Module to_cck_module(
    const BenchmarkSpec& spec,
    const std::map<std::string, hw::MemRegion*>& regions) {
  cck::Module m;
  cck::Function fn;
  fn.name = "main";
  for (const auto& r : spec.regions)
    fn.declare(cck::Var{r.name, r.bytes, /*is_object=*/true});
  for (const auto& l : spec.loops) {
    if (l.needs_object_privatization)
      fn.declare(cck::Var{"work_" + l.name, 1ULL << 20, /*is_object=*/true});
  }
  if (spec.serial_ns_per_step > 0)
    fn.items.push_back(cck::Item::make_serial(spec.serial_ns_per_step));
  for (const auto& l : spec.loops)
    fn.items.push_back(cck::Item::make_loop(to_cck_loop(l, regions.at(l.region))));
  m.functions["main"] = std::move(fn);
  return m;
}

std::map<std::string, hw::MemRegion*> alloc_regions(osal::Os& os,
                                                    const BenchmarkSpec& spec) {
  std::map<std::string, hw::MemRegion*> out;
  for (const auto& r : spec.regions) {
    out[r.name] =
        os.alloc_region(spec.full_name() + "/" + r.name, r.bytes,
                        osal::AllocPolicy::local());
  }
  return out;
}

namespace {

/// Streaming touch of one partition of a region: the init loop body.
hw::WorkBlock touch_block(hw::MemRegion* region, int part) {
  const std::uint64_t slice = region->bytes() / kParts;
  hw::WorkBlock b;
  b.cpu_ns = static_cast<sim::Time>(static_cast<double>(slice) / 16.0);
  b.mem_fraction = 0.9;
  b.bytes_touched = slice;
  b.working_set_bytes = slice;
  b.pattern = hw::AccessPattern::kStreaming;
  b.region = region;
  (void)part;
  return b;
}

}  // namespace

RunResult run_openmp(komp::Runtime& rt, const BenchmarkSpec& spec) {
  RunResult out;
  osal::Os& os = rt.os();
  auto regions = alloc_regions(os, spec);

  // --- untimed init: parallel first touch of every region ---
  // Each thread touches the same slice of the index space the timed
  // loops will assign to it (NAS init loops mirror the compute loops'
  // static distribution), so first-touch placement lands local.
  const double init_start = rt.wtime();
  rt.parallel([&](komp::TeamThread& tt) {
    const int n = tt.nthreads();
    const int lo = tt.id() * kParts / n;
    const int hi = (tt.id() + 1) * kParts / n;
    for (auto& [name, region] : regions) {
      for (int p = lo; p < hi; ++p)
        tt.compute_partitioned(touch_block(region, p), p, kParts);
      // n > kParts: threads sharing a slice skip re-touching.
    }
    tt.barrier();
  });
  out.init_seconds = rt.wtime() - init_start;

  // Pre-build the IR loop shells once (chunk cost helper reuse).
  std::vector<cck::Loop> loops;
  loops.reserve(spec.loops.size());
  for (const auto& l : spec.loops)
    loops.push_back(to_cck_loop(l, regions.at(l.region)));

  // --- timed section ---
  const double t0 = rt.wtime();
  for (int step = 0; step < spec.timesteps; ++step) {
    rt.parallel([&](komp::TeamThread& tt) {
      for (std::size_t li = 0; li < spec.loops.size(); ++li) {
        const LoopSpec& ls = spec.loops[li];
        const cck::Loop& cl = loops[li];
        tt.for_loop(ls.schedule, ls.chunk, 0, ls.trip,
                    [&](std::int64_t b, std::int64_t e) {
                      // Split the block at partition boundaries: NUMA
                      // placement is page-granular, so a thread whose
                      // range straddles two zones pays remote latency
                      // only for the straddling slice, not for its
                      // whole block.
                      std::int64_t sb = b;
                      while (sb < e) {
                        const int part =
                            cck::chunk_partition(cl, sb, sb + 1, kParts);
                        std::int64_t se =
                            (static_cast<std::int64_t>(part) + 1) * ls.trip /
                            kParts;
                        se = std::max(sb + 1, std::min(se, e));
                        const hw::WorkBlock wb =
                            cck::chunk_work(cl, sb, se, tt.nthreads());
                        tt.compute_partitioned(wb, part, kParts);
                        sb = se;
                      }
                    });
      }
      tt.master([&] {
        if (spec.serial_ns_per_step > 0)
          tt.compute_ns(static_cast<sim::Time>(spec.serial_ns_per_step));
      });
      tt.barrier();
    });
  }
  out.timed_seconds = rt.wtime() - t0;

  for (auto& [name, region] : regions) os.free_region(region);
  return out;
}

}  // namespace kop::nas

// Figure 9: RTK performance relative to Linux as a function of CPUs --
// NAS benchmarks on PHI.  Expected shape (paper §6.2): RTK gains from
// +90% (BT at 1 CPU) down to roughly parity, ~22% geomean, driven by
// the kernel environment (no faults, rare TLB misses, NUMA-cognizant
// allocation, no noise, no competing threads).
#include <cstdio>

#include "harness/figures.hpp"

int main(int argc, char** argv) try {
  const auto opts = kop::harness::parse_fig_options(argc, argv);
  if (!opts.ok) return 2;
  // The sweep definition is shared with kop_baseline so a saved cache
  // of this figure lines up point-for-point with the diff driver.
  const auto sweep = kop::harness::fig09_sweep(opts.quick);
  kop::harness::MetricsSink sink("fig09_nas_rtk_phi");
  std::fputs(kop::harness::print_nas_normalized(
                 "Figure 9: NAS, RTK vs Linux on PHI", sweep.machine,
                 sweep.paths, sweep.scales, sweep.suite, &sink, opts.jobs)
                 .c_str(),
             stdout);
  return kop::harness::finish_figure(opts, sink);
} catch (const std::exception& e) {
  return kop::harness::fail_figure(e);
}

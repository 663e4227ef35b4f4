// Figure 13: RTK and PIK performance compared to Linux -- EPCC
// microbenchmarks on 192 cores of 8XEON.  Expected shape (paper §6.3):
// except for scheduling (comparable), RTK and PIK outperform Linux at
// this scale (futex wakes and OS noise hurt the user-level barrier and
// task paths much more at 192 threads).
#include <cstdio>

#include "harness/figures.hpp"

int main(int argc, char** argv) try {
  const auto opts = kop::harness::parse_fig_options(argc, argv);
  if (!opts.ok) return 2;
  // The sweep definition is shared with kop_baseline so a saved cache
  // of this figure lines up point-for-point with the diff driver.
  const auto sweep = kop::harness::fig13_sweep(opts.quick);
  kop::harness::MetricsSink sink("fig13_epcc_8xeon");
  std::fputs(kop::harness::print_epcc_figure(
                 "Figure 13: EPCC, RTK and PIK vs Linux, 192 cores of 8XEON",
                 sweep.machine, sweep.threads, sweep.paths, sweep.config,
                 &sink, opts.jobs)
                 .c_str(),
             stdout);
  return kop::harness::finish_figure(opts, sink);
} catch (const std::exception& e) {
  return kop::harness::fail_figure(e);
}

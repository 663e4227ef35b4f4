// Figure 8: PIK performance compared to Linux -- EPCC microbenchmarks
// on 64 cores of PHI.  Expected shape (paper §6.1): PIK slightly
// *lower* overhead than Linux, with considerably lower variance (the
// same binary, but cheap kernel-mode crossings and no OS noise).
#include <cstdio>

#include "harness/figures.hpp"

int main(int argc, char** argv) try {
  const auto opts = kop::harness::parse_fig_options(argc, argv);
  if (!opts.ok) return 2;
  kop::epcc::EpccConfig cfg;
  cfg.outer_reps = opts.quick ? 2 : 6;
  cfg.inner_iters = opts.quick ? 4 : 16;
  const int threads = opts.quick ? 8 : 64;
  kop::harness::MetricsSink sink("fig08_epcc_pik_phi");
  std::fputs(kop::harness::print_epcc_figure(
                 "Figure 8: EPCC, PIK vs Linux, 64 cores of PHI", "phi",
                 threads,
                 {kop::core::PathKind::kLinuxOmp, kop::core::PathKind::kPik},
                 cfg, &sink, opts.jobs)
                 .c_str(),
             stdout);
  return kop::harness::finish_figure(opts, sink);
} catch (const std::exception& e) {
  return kop::harness::fail_figure(e);
}

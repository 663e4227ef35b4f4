// Figure 14: RTK and PIK performance relative to Linux as a function
// of CPUs -- NAS benchmarks on 8XEON.  Expected shape (paper §6.3):
// ~20% geomean gains for RTK and PIK; Nautilus runs beyond one socket
// use the first-touch-at-2MB extension.
#include <cstdio>

#include "harness/figures.hpp"

int main(int argc, char** argv) try {
  const auto opts = kop::harness::parse_fig_options(argc, argv);
  if (!opts.ok) return 2;
  auto suite = kop::harness::scale_suite(kop::nas::paper_suite(),
                                         opts.quick ? 0.5 : 8.0 / 3.0,
                                         opts.quick ? 2 : 3);
  if (opts.quick) suite.resize(2);
  const auto scales =
      opts.quick ? std::vector<int>{1, 16} : kop::harness::xeon_scales();
  kop::harness::MetricsSink sink("fig14_nas_8xeon");
  std::fputs(kop::harness::print_nas_normalized(
                 "Figure 14: NAS, RTK and PIK vs Linux on 8XEON", "8xeon",
                 {kop::core::PathKind::kRtk, kop::core::PathKind::kPik},
                 scales, suite, &sink, opts.jobs)
                 .c_str(),
             stdout);
  return kop::harness::finish_figure(opts, sink);
} catch (const std::exception& e) {
  return kop::harness::fail_figure(e);
}

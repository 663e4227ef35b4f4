// Figure 10: PIK performance relative to Linux as a function of CPUs
// -- NAS benchmarks on PHI.  Expected shape (paper §6.2): generally
// similar to RTK but smaller gains, ~10% geomean (the pristine binary
// keeps the user-level 2MB-grained memory layout).
#include <cstdio>

#include "harness/figures.hpp"

int main(int argc, char** argv) try {
  const auto opts = kop::harness::parse_fig_options(argc, argv);
  if (!opts.ok) return 2;
  auto suite = kop::harness::scale_suite(kop::nas::paper_suite(),
                                         opts.quick ? 0.5 : 2.0,
                                         opts.quick ? 2 : 4);
  if (opts.quick) suite.resize(2);
  const auto scales =
      opts.quick ? std::vector<int>{1, 8} : kop::harness::phi_scales();
  kop::harness::MetricsSink sink("fig10_nas_pik_phi");
  std::fputs(kop::harness::print_nas_normalized(
                 "Figure 10: NAS, PIK vs Linux on PHI", "phi",
                 {kop::core::PathKind::kPik}, scales, suite, &sink, opts.jobs)
                 .c_str(),
             stdout);
  return kop::harness::finish_figure(opts, sink);
} catch (const std::exception& e) {
  return kop::harness::fail_figure(e);
}

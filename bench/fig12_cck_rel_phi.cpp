// Figure 12: CCK performance relative to Linux-OpenMP on PHI
// (normalized; higher is better).  Same data as Fig. 11, paper-style
// normalization.
#include <cstdio>

#include "harness/figures.hpp"

int main(int argc, char** argv) try {
  const auto opts = kop::harness::parse_fig_options(argc, argv);
  if (!opts.ok) return 2;
  auto suite = kop::harness::scale_suite(kop::nas::cck_suite(),
                                         opts.quick ? 0.5 : 2.0,
                                         opts.quick ? 2 : 4);
  if (opts.quick) suite.resize(2);
  const auto scales =
      opts.quick ? std::vector<int>{1, 8} : kop::harness::phi_scales();
  kop::harness::MetricsSink sink("fig12_cck_rel_phi");
  std::fputs(kop::harness::print_cck_normalized(
                 "Figure 12: CCK normalized performance on PHI", "phi",
                 scales, suite, &sink, opts.jobs)
                 .c_str(),
             stdout);
  return kop::harness::finish_figure(opts, sink);
} catch (const std::exception& e) {
  return kop::harness::fail_figure(e);
}

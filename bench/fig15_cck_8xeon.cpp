// Figure 15: CCK performance relative to Linux-OpenMP on 8XEON
// (normalized; higher is better).
#include <cstdio>

#include "harness/figures.hpp"

int main(int argc, char** argv) try {
  const auto opts = kop::harness::parse_fig_options(argc, argv);
  if (!opts.ok) return 2;
  auto suite = kop::harness::scale_suite(kop::nas::cck_suite(),
                                         opts.quick ? 0.5 : 8.0 / 3.0,
                                         opts.quick ? 2 : 3);
  if (opts.quick) suite.resize(2);
  const auto scales =
      opts.quick ? std::vector<int>{1, 16} : kop::harness::xeon_scales();
  kop::harness::MetricsSink sink("fig15_cck_8xeon");
  std::fputs(kop::harness::print_cck_normalized(
                 "Figure 15: CCK normalized performance on 8XEON", "8xeon",
                 scales, suite, &sink, opts.jobs)
                 .c_str(),
             stdout);
  return kop::harness::finish_figure(opts, sink);
} catch (const std::exception& e) {
  return kop::harness::fail_figure(e);
}

// Figure 11: CCK absolute performance on Linux and Nautilus compared
// to stock OpenMP on Linux (NAS on PHI; lower is better).  Expected
// shape (paper §6.2): FT/EP parity between OpenMP and AutoMP; LU, BT,
// SP lose (object-privatization limitation leaves loops sequential);
// MG and CG beat OpenMP (latency-aware chunking); IS is elided.
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
  kop::harness::MetricsSink sink("fig11_cck_abs_phi");
  std::fputs(kop::harness::print_cck_absolute(
                 "Figure 11: CCK absolute times on PHI (Linux OMP vs Linux "
                 "AutoMP vs NK AutoMP)",
                 "phi", scales, suite, &sink, opts.jobs)
                 .c_str(),
             stdout);
  std::printf("IS-C is elided: AutoMP extracts no parallelism from it "
              "(every loop needs object privatization).\n");
  return kop::harness::finish_figure(opts, sink);
} catch (const std::exception& e) {
  return kop::harness::fail_figure(e);
}

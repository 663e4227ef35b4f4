// Ablation: gang scheduling of PIK process thread groups (§4.2).
//
// Two processes share the machine's CPUs.  Under gang scheduling each
// group's threads run simultaneously; under uncoordinated per-CPU
// timeslicing the group dephases and every barrier waits for
// descheduled partners.  The gap widens with barrier frequency.
#include <cstdio>
#include <functional>
#include <vector>

#include "harness/jobs/runner.hpp"
#include "harness/metrics.hpp"
#include "harness/table.hpp"
#include "osal/sync.hpp"
#include "pik/gang.hpp"
#include "pik/pik_os.hpp"

using namespace kop;

namespace {

double run(pik::GangScheduler::Policy policy, int threads, int rounds,
           sim::Time work_per_round) {
  sim::Engine engine(23);
  pik::PikOs os(engine, hw::phi());
  pik::GangScheduler gang(os, policy, /*groups=*/2);
  osal::Barrier barrier(os, threads);
  sim::Time done = 0;
  for (int t = 0; t < threads; ++t) {
    os.spawn_thread(
        "g0-" + std::to_string(t),
        [&, t] {
          for (int r = 0; r < rounds; ++r) {
            gang.compute(0, t, work_per_round);
            barrier.arrive_and_wait();
          }
          done = std::max(done, engine.now());
        },
        t);
  }
  engine.run();
  return sim::to_seconds(done) * 1e3;
}

}  // namespace

int main(int argc, char** argv) try {
  const auto opts = harness::parse_fig_options(argc, argv);
  if (!opts.ok) return 2;
  std::printf("== Ablation: gang vs uncoordinated scheduling of a PIK "
              "thread group ==\n");
  std::printf("   16 threads + a co-located second group, 2 ms windows;\n"
              "   time to finish 40 compute+barrier rounds (ms)\n\n");

  const std::vector<sim::Time> works = {100 * sim::kMicrosecond,
                                        500 * sim::kMicrosecond,
                                        2000 * sim::kMicrosecond};
  const int rounds = opts.quick ? 10 : 40;
  // Independent engines per cell: parallel map over the host pool.
  std::vector<double> gang_ms(works.size()), unco_ms(works.size());
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < works.size(); ++i) {
    tasks.push_back([&gang_ms, &works, rounds, i] {
      gang_ms[i] =
          run(pik::GangScheduler::Policy::kGang, 16, rounds, works[i]);
    });
    tasks.push_back([&unco_ms, &works, rounds, i] {
      unco_ms[i] = run(pik::GangScheduler::Policy::kUncoordinated, 16, rounds,
                       works[i]);
    });
  }
  harness::jobs::JobRunner runner(opts.jobs);
  runner.run_tasks(tasks);

  harness::Table t({"work/round", "gang ms", "uncoordinated ms", "penalty"});
  for (std::size_t i = 0; i < works.size(); ++i) {
    t.add_row({harness::Table::num(sim::to_micros(works[i]), 0) + "us",
               harness::Table::num(gang_ms[i], 2),
               harness::Table::num(unco_ms[i], 2),
               harness::Table::num(unco_ms[i] / gang_ms[i])});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("Expected: both pay the 2x sharing; the uncoordinated runs\n"
              "pay extra at every barrier, worst for fine-grained rounds --\n"
              "why the PIK process abstraction supports gang scheduling.\n");
  return 0;
} catch (const std::exception& e) {
  return kop::harness::fail_figure(e);
}

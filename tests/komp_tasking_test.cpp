// Tests for explicit tasks: spawning, stealing, taskwait, nesting,
// barrier draining, undeferred (if-clause) tasks, task trees.
#include <gtest/gtest.h>

#include <set>

#include "komp/runtime.hpp"
#include "nautilus/kernel.hpp"
#include "pthread_compat/pthreads.hpp"

namespace kop::komp {
namespace {

struct Fixture {
  explicit Fixture(int threads, std::uint64_t seed = 42,
                   hw::MachineConfig machine = hw::phi()) {
    engine = std::make_unique<sim::Engine>(seed);
    nk = std::make_unique<nautilus::NautilusKernel>(*engine,
                                                    std::move(machine));
    nk->set_env("OMP_NUM_THREADS", std::to_string(threads));
    pt = std::make_unique<pthread_compat::Pthreads>(
        *nk, pthread_compat::nautilus_native_tuning());
  }
  void run(const std::function<void(Runtime&)>& body) {
    nk->spawn_thread(
        "main",
        [this, body] {
          Runtime rt(*pt);
          body(rt);
        },
        0);
    engine->run();
  }
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<nautilus::NautilusKernel> nk;
  std::unique_ptr<pthread_compat::Pthreads> pt;
};

TEST(Tasking, AllTasksCompleteByRegionEnd) {
  Fixture f(8);
  int done = 0;
  f.run([&](Runtime& rt) {
    rt.parallel([&](TeamThread& tt) {
      for (int k = 0; k < 10; ++k)
        tt.task([&](TeamThread& ex) {
          ex.compute_ns(1000);
          ++done;
        });
    });
    // Implicit barrier drained everything.
    EXPECT_EQ(done, 80);
  });
  EXPECT_EQ(done, 80);
}

TEST(Tasking, TaskwaitWaitsForChildrenOnly) {
  Fixture f(4);
  bool child_done_at_wait = false;
  f.run([&](Runtime& rt) {
    rt.parallel(1, [&](TeamThread& tt) {
      bool child_done = false;
      tt.task([&](TeamThread& ex) {
        ex.compute_ns(5000);
        child_done = true;
      });
      tt.taskwait();
      child_done_at_wait = child_done;
    });
  });
  EXPECT_TRUE(child_done_at_wait);
}

TEST(Tasking, MasterSpawnedTasksAreStolen) {
  Fixture f(8);
  std::set<int> executors;
  f.run([&](Runtime& rt) {
    rt.parallel([&](TeamThread& tt) {
      tt.master([&] {
        for (int k = 0; k < 64; ++k)
          tt.task([&](TeamThread& ex) {
            ex.compute_ns(20'000);
            executors.insert(ex.id());
          });
      });
      tt.barrier();
    });
  });
  EXPECT_GT(executors.size(), 1u);  // idle threads helped
}

TEST(Tasking, NestedTasksComplete) {
  Fixture f(4);
  int leaves = 0;
  f.run([&](Runtime& rt) {
    rt.parallel([&](TeamThread& tt) {
      tt.master([&] {
        for (int k = 0; k < 8; ++k) {
          tt.task([&](TeamThread& ex) {
            for (int j = 0; j < 4; ++j)
              ex.task([&](TeamThread& ex2) {
                ex2.compute_ns(500);
                ++leaves;
              });
            ex.taskwait();
          });
        }
      });
      tt.barrier();
    });
  });
  EXPECT_EQ(leaves, 32);
}

TEST(Tasking, TaskTreeCompletes) {
  Fixture f(8);
  int nodes = 0;
  std::function<void(TeamThread&, int)> tree = [&](TeamThread& tt, int depth) {
    ++nodes;
    if (depth == 0) return;
    for (int c = 0; c < 2; ++c)
      tt.task([&tree, depth](TeamThread& ex) { tree(ex, depth - 1); });
    tt.taskwait();
  };
  f.run([&](Runtime& rt) {
    rt.parallel([&](TeamThread& tt) {
      tt.master([&] { tree(tt, 6); });
      tt.barrier();
    });
  });
  EXPECT_EQ(nodes, (1 << 7) - 1);  // 2^(d+1)-1
}

TEST(Tasking, UndeferredTaskRunsInline) {
  Fixture f(4);
  int executor = -1;
  f.run([&](Runtime& rt) {
    rt.parallel([&](TeamThread& tt) {
      if (tt.id() == 2)
        tt.task_if(false, [&](TeamThread& ex) { executor = ex.id(); });
    });
  });
  EXPECT_EQ(executor, 2);
}

TEST(Tasking, SingleThreadTeamRunsTasks) {
  Fixture f(1);
  int done = 0;
  f.run([&](Runtime& rt) {
    rt.parallel([&](TeamThread& tt) {
      for (int k = 0; k < 5; ++k)
        tt.task([&](TeamThread&) { ++done; });
      tt.taskwait();
      EXPECT_EQ(done, 5);
    });
  });
  EXPECT_EQ(done, 5);
}

TEST(Tasking, HeavyTaskLoadBalances) {
  // 256 uneven tasks from one producer: stealing should spread the
  // wall-clock far below the serial sum.
  Fixture f(8);
  double seconds = 0;
  f.run([&](Runtime& rt) {
    const double t0 = rt.wtime();
    rt.parallel([&](TeamThread& tt) {
      tt.master([&] {
        for (int k = 0; k < 256; ++k)
          tt.task([k](TeamThread& ex) {
            ex.compute_ns(10'000 + (k % 7) * 3000);
          });
      });
      tt.barrier();
    });
    seconds = rt.wtime() - t0;
  });
  // Serial sum ~ 4.86ms; 8 threads should cut it well below half.
  EXPECT_LT(seconds, 0.0030);
}

TEST(Tasking, HierSchedulingCompletesAndClassifiesSteals) {
  // KOMP_NUMA_SCHED=hier on a multi-zone machine: 16 threads spread
  // over 8XEON's 8 sockets, one producer.  Every steal must be
  // classified as either local (victim in the thief's zone) or remote,
  // and the two splits must add up to the steal total.
  Fixture f(16, 42, hw::xeon8());
  f.nk->set_env("KOMP_NUMA_SCHED", "hier");
  f.nk->set_env("OMP_PROC_BIND", "spread");
  int done = 0;
  f.run([&](Runtime& rt) {
    rt.parallel([&](TeamThread& tt) {
      tt.master([&] {
        for (int k = 0; k < 128; ++k)
          tt.task([&](TeamThread& ex) {
            ex.compute_ns(20'000);
            ++done;
          });
      });
      tt.barrier();
    });
  });
  EXPECT_EQ(done, 128);
  const auto snap = f.nk->counters().snapshot();
  const auto at = [&snap](telemetry::Counter c) {
    return snap.totals[static_cast<int>(c)];
  };
  EXPECT_GT(at(telemetry::Counter::kTaskSteals), 0u);
  EXPECT_EQ(at(telemetry::Counter::kTaskSteals),
            at(telemetry::Counter::kTaskStealsLocal) +
                at(telemetry::Counter::kTaskStealsRemote));
  // Spread binding leaves the producer's zone with one idle sibling;
  // the other 14 thieves sit across the fabric.
  EXPECT_GT(at(telemetry::Counter::kTaskStealsRemote), 0u);
}

// Simulated time of one try_run_one(1) on a directly built pool of n
// threads whose only task sits on deque 0.  Under kHier, tids are
// spread round-robin over the machine's CPU-bearing zones, so thief 1
// and deque 0 sit in different zones.
sim::Time one_steal_ns(int n, hw::MachineConfig machine, NumaSched sched) {
  std::vector<int> cpu_of_tid;
  if (sched == NumaSched::kHier) {
    std::vector<const hw::NumaZone*> zones;
    for (const auto& z : machine.zones)
      if (!z.cpus.empty()) zones.push_back(&z);
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i)
      cpu_of_tid.push_back(zones[i % zones.size()]->cpus[i / zones.size()]);
  }
  Fixture f(n, 42, std::move(machine));
  const RuntimeTuning tuning;
  sim::Time elapsed = 0;
  bool ran = false;
  f.nk->spawn_thread(
      "thief",
      [&] {
        TaskPool pool(*f.nk, n, tuning, 1000, sched, cpu_of_tid);
        pool.spawn(0, [](int) {});
        const sim::Time t0 = f.engine->now();
        ran = pool.try_run_one(1);
        elapsed = f.engine->now() - t0;
      },
      0);
  f.engine->run();
  EXPECT_TRUE(ran);
  const auto snap = f.nk->counters().snapshot();
  EXPECT_EQ(snap.totals[static_cast<int>(
                sched == NumaSched::kHier
                    ? telemetry::Counter::kTaskStealsRemote
                    : telemetry::Counter::kTaskStealsLocal)],
            1u);
  return elapsed;
}

TEST(Tasking, EmptyVictimsCostNoSimulatedTime) {
  // From tid 1 the ring reaches deque 0 last, after n - 2 empty deques.
  // A thief peeks at a victim before taking its lock, as libomp does,
  // so an empty victim costs nothing and the walk's time does not
  // depend on n.
  const sim::Time base = one_steal_ns(4, hw::phi(), NumaSched::kFlat);
  EXPECT_GT(base, sim::Time{0});
  EXPECT_EQ(one_steal_ns(64, hw::phi(), NumaSched::kFlat), base);
}

TEST(Tasking, EmptyVictimsCostNoSimulatedTimeInHierWalk) {
  // 8XEON with one thread per zone, then eight: thief 1 now walks seven
  // empty same-zone victims, and the empty victims of every zone nearer
  // than deque 0's, before it raids deque 0 (gated in pass 0, taken in
  // pass 1).
  const sim::Time base = one_steal_ns(8, hw::xeon8(), NumaSched::kHier);
  EXPECT_GT(base, sim::Time{0});
  EXPECT_EQ(one_steal_ns(64, hw::xeon8(), NumaSched::kHier), base);
}

TEST(Tasking, HierOnSingleZoneMachineStealsOnlyLocally) {
  // PHI's only CPU-bearing zone is zone 0 (MCDRAM is CPU-less), so the
  // topology walk degenerates to the flat ring: everything classifies
  // local and no remote traffic is ever recorded.
  Fixture f(8);
  f.nk->set_env("KOMP_NUMA_SCHED", "hier");
  int done = 0;
  f.run([&](Runtime& rt) {
    rt.parallel([&](TeamThread& tt) {
      tt.master([&] {
        for (int k = 0; k < 64; ++k)
          tt.task([&](TeamThread& ex) {
            ex.compute_ns(20'000);
            ++done;
          });
      });
      tt.barrier();
    });
  });
  EXPECT_EQ(done, 64);
  const auto snap = f.nk->counters().snapshot();
  EXPECT_GT(snap.totals[static_cast<int>(telemetry::Counter::kTaskSteals)],
            0u);
  EXPECT_EQ(
      snap.totals[static_cast<int>(telemetry::Counter::kTaskStealsRemote)],
      0u);
  EXPECT_EQ(
      snap.totals[static_cast<int>(telemetry::Counter::kTaskSteals)],
      snap.totals[static_cast<int>(telemetry::Counter::kTaskStealsLocal)]);
}

}  // namespace
}  // namespace kop::komp

// Appended coverage: taskloop.
namespace kop::komp {
namespace {

TEST(Taskloop, CoversRangeExactlyOnceAndBalances) {
  Fixture f(8);
  std::map<std::int64_t, int> hits;
  std::set<int> executors;
  f.run([&](Runtime& rt) {
    rt.parallel([&](TeamThread& tt) {
      tt.single([&] {
        tt.taskloop(0, 500, 10,
                    [&](TeamThread& ex, std::int64_t b, std::int64_t e) {
                      EXPECT_LE(e - b, 10);
                      executors.insert(ex.id());
                      ex.compute_ns(20'000);
                      for (std::int64_t i = b; i < e; ++i) ++hits[i];
                    });
      });
    });
  });
  ASSERT_EQ(hits.size(), 500u);
  for (const auto& [i, n] : hits) ASSERT_EQ(n, 1) << i;
  EXPECT_GT(executors.size(), 1u);  // spread over the team
}

TEST(Taskloop, DefaultGrainAndEmptyRange) {
  Fixture f(4);
  int chunks = 0;
  std::int64_t covered = 0;
  f.run([&](Runtime& rt) {
    rt.parallel([&](TeamThread& tt) {
      tt.single([&] {
        tt.taskloop(0, 0, 0, [&](TeamThread&, std::int64_t, std::int64_t) {
          ADD_FAILURE() << "empty taskloop must spawn nothing";
        });
        tt.taskloop(10, 330, 0,
                    [&](TeamThread&, std::int64_t b, std::int64_t e) {
                      ++chunks;
                      covered += e - b;
                    });
      });
    });
  });
  EXPECT_EQ(covered, 320);
  // default grain ~ total/(8*n) = 10 -> ~32 tasks
  EXPECT_GE(chunks, 16);
}

TEST(Taskloop, CompletesBeforeReturning) {
  Fixture f(4);
  f.run([&](Runtime& rt) {
    rt.parallel([&](TeamThread& tt) {
      tt.master([&] {
        int done = 0;
        tt.taskloop(0, 64, 4,
                    [&](TeamThread& ex, std::int64_t, std::int64_t) {
                      ex.compute_ns(5000);
                      ++done;
                    });
        // taskloop has an implicit taskwait (no nogroup).
        EXPECT_EQ(done, 16);
      });
    });
  });
}

}  // namespace
}  // namespace kop::komp

// Parameterized property tests: invariants that must hold across the
// whole configuration space (schedules x team sizes x trip counts,
// barrier algorithms x team sizes, machines x paths, buddy-allocator
// operation sequences).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <tuple>
#include <vector>

#include "core/stack.hpp"
#include "komp/runtime.hpp"
#include "nautilus/buddy.hpp"
#include "nautilus/kernel.hpp"
#include "pthread_compat/pthreads.hpp"
#include "sim/rng.hpp"

namespace kop {
namespace {

// ------------------------------------------------------------------
// Worksharing coverage: every iteration executes exactly once, no
// matter the schedule, chunk, team size, or trip count.
// ------------------------------------------------------------------

using SchedCase = std::tuple<komp::Schedule, int /*chunk*/, int /*threads*/,
                             std::int64_t /*trip*/>;

class ForLoopCoverage : public ::testing::TestWithParam<SchedCase> {};

TEST_P(ForLoopCoverage, EveryIterationExactlyOnce) {
  const auto [sched, chunk, threads, trip] = GetParam();
  sim::Engine engine(99);
  nautilus::NautilusKernel nk(engine, hw::phi());
  nk.set_env("OMP_NUM_THREADS", std::to_string(threads));
  pthread_compat::Pthreads pt(nk, pthread_compat::nautilus_native_tuning());

  std::map<std::int64_t, int> hits;
  bool in_range = true;
  nk.spawn_thread(
      "main",
      [&] {
        komp::Runtime rt(pt);
        rt.parallel([&](komp::TeamThread& tt) {
          tt.for_loop(sched, chunk, 0, trip,
                      [&](std::int64_t b, std::int64_t e) {
                        if (b < 0 || e > trip || b >= e) in_range = false;
                        for (std::int64_t i = b; i < e; ++i) ++hits[i];
                      });
        });
      },
      0);
  engine.run();

  EXPECT_TRUE(in_range);
  EXPECT_EQ(hits.size(), static_cast<std::size_t>(trip));
  for (const auto& [i, count] : hits)
    ASSERT_EQ(count, 1) << "iteration " << i << " ran " << count << " times";
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ForLoopCoverage,
    ::testing::Combine(
        ::testing::Values(komp::Schedule::kStatic,
                          komp::Schedule::kStaticChunked,
                          komp::Schedule::kDynamic, komp::Schedule::kGuided),
        ::testing::Values(1, 7, 64),
        ::testing::Values(1, 3, 8, 32),
        ::testing::Values<std::int64_t>(0, 1, 13, 100, 1000)));

// ------------------------------------------------------------------
// Barrier correctness under both algorithms and odd team sizes.
// ------------------------------------------------------------------

using BarrierCase = std::tuple<komp::RuntimeTuning::BarrierAlgo, int>;

class BarrierProperty : public ::testing::TestWithParam<BarrierCase> {};

TEST_P(BarrierProperty, NoThreadPassesEarlyOverManyRounds) {
  const auto [algo, threads] = GetParam();
  sim::Engine engine(7);
  nautilus::NautilusKernel nk(engine, hw::phi());
  nk.set_env("OMP_NUM_THREADS", std::to_string(threads));
  pthread_compat::Pthreads pt(nk, pthread_compat::nautilus_native_tuning());

  constexpr int kRounds = 12;
  std::vector<int> round_count(kRounds, 0);
  bool violation = false;
  nk.spawn_thread(
      "main",
      [&] {
        komp::RuntimeTuning tuning;
        tuning.barrier_algo = algo;
        komp::Runtime rt(pt, tuning);
        rt.parallel([&, threads = threads](komp::TeamThread& tt) {
          for (int r = 0; r < kRounds; ++r) {
            // Stagger arrivals pseudo-randomly.
            tt.compute_ns(100 * ((tt.id() * 31 + r * 17) % 13 + 1));
            ++round_count[static_cast<std::size_t>(r)];
            tt.barrier();
            // After the barrier, the whole team must have arrived.
            if (round_count[static_cast<std::size_t>(r)] != threads)
              violation = true;
          }
        });
      },
      0);
  engine.run();
  EXPECT_FALSE(violation);
  for (int r = 0; r < kRounds; ++r)
    EXPECT_EQ(round_count[static_cast<std::size_t>(r)],
              std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, BarrierProperty,
    ::testing::Combine(
        ::testing::Values(komp::RuntimeTuning::BarrierAlgo::kCentralized,
                          komp::RuntimeTuning::BarrierAlgo::kTree),
        ::testing::Values(1, 2, 3, 5, 8, 13, 16, 31, 64)));

// ------------------------------------------------------------------
// Reductions agree with the serial answer for every op / team size.
// ------------------------------------------------------------------

class ReduceProperty : public ::testing::TestWithParam<int> {};

TEST_P(ReduceProperty, MatchesSerialForAllOps) {
  const int threads = GetParam();
  sim::Engine engine(3);
  nautilus::NautilusKernel nk(engine, hw::phi());
  nk.set_env("OMP_NUM_THREADS", std::to_string(threads));
  pthread_compat::Pthreads pt(nk, pthread_compat::nautilus_native_tuning());

  double sum = 0, prod = 0, mn = 0, mx = 0;
  nk.spawn_thread(
      "main",
      [&] {
        komp::Runtime rt(pt);
        rt.parallel([&](komp::TeamThread& tt) {
          const double v = static_cast<double>(tt.id() + 1);
          const double s = tt.reduce(v, komp::ReduceOp::kSum);
          const double p = tt.reduce(2.0, komp::ReduceOp::kProd);
          const double lo = tt.reduce(v, komp::ReduceOp::kMin);
          const double hi = tt.reduce(v, komp::ReduceOp::kMax);
          if (tt.id() == tt.nthreads() - 1) {
            sum = s;
            prod = p;
            mn = lo;
            mx = hi;
          }
        });
      },
      0);
  engine.run();

  const double n = threads;
  EXPECT_DOUBLE_EQ(sum, n * (n + 1) / 2);
  EXPECT_DOUBLE_EQ(prod, std::pow(2.0, n));
  EXPECT_DOUBLE_EQ(mn, 1.0);
  EXPECT_DOUBLE_EQ(mx, n);
}

INSTANTIATE_TEST_SUITE_P(TeamSizes, ReduceProperty,
                         ::testing::Values(1, 2, 3, 7, 16, 33, 64));

// ------------------------------------------------------------------
// Buddy allocator: randomized alloc/free sequences keep invariants.
// ------------------------------------------------------------------

class BuddyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BuddyProperty, RandomSequencesPreserveInvariants) {
  sim::Rng rng(GetParam());
  nautilus::BuddyAllocator buddy(1ULL << 30, 8ULL << 20, 4096);
  const std::uint64_t cap = buddy.capacity();

  std::map<std::uint64_t, std::uint64_t> live;  // addr -> requested
  for (int step = 0; step < 400; ++step) {
    if (live.empty() || rng.bernoulli(0.6)) {
      const std::uint64_t bytes = 1ULL << rng.uniform_int(6, 18);
      try {
        const std::uint64_t addr = buddy.alloc(bytes);
        // In-range and non-overlapping with everything live.
        ASSERT_GE(addr, buddy.base());
        ASSERT_LE(addr + bytes, buddy.base() + cap);
        for (const auto& [a, sz] : live) {
          const std::uint64_t a_end = a + std::max<std::uint64_t>(sz, 4096);
          const std::uint64_t b_end = addr + std::max<std::uint64_t>(bytes, 4096);
          ASSERT_TRUE(addr >= a_end || a >= b_end)
              << "overlap " << addr << " vs " << a;
        }
        live[addr] = bytes;
      } catch (const nautilus::BuddyError&) {
        // OOM is legal; the allocator must still be consistent.
      }
    } else {
      auto it = live.begin();
      std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      buddy.free(it->first);
      live.erase(it);
    }
    ASSERT_LE(buddy.allocated_bytes(), cap);
  }
  for (const auto& [a, sz] : live) buddy.free(a);
  EXPECT_EQ(buddy.allocated_bytes(), 0u);
  EXPECT_EQ(buddy.largest_free_block(), cap);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------------------------------
// Translation model monotonicity: more working set or smaller pages
// never *reduce* the miss rate.
// ------------------------------------------------------------------

class TlbMonotonic : public ::testing::TestWithParam<int> {};

TEST_P(TlbMonotonic, MissRateMonotoneInWorkingSet) {
  const auto machine =
      GetParam() == 0 ? hw::phi() : hw::xeon8();
  hw::MemRegion region("r", 8ULL << 30);
  region.set_page_size(hw::PageSize::k2M);
  region.set_small_page_fraction(0.2);
  for (auto pattern :
       {hw::AccessPattern::kStreaming, hw::AccessPattern::kRandom,
        hw::AccessPattern::kBlocked}) {
    double prev = -1.0;
    for (std::uint64_t ws = 1ULL << 20; ws <= 4ULL << 30; ws <<= 2) {
      const auto tc = hw::translation_cost(machine.tlb, region, ws, pattern);
      ASSERT_GE(tc.tlb_miss_rate, prev)
          << "pattern " << static_cast<int>(pattern) << " ws " << ws;
      ASSERT_GE(tc.tlb_miss_rate, 0.0);
      ASSERT_LE(tc.tlb_miss_rate, 1.0);
      prev = tc.tlb_miss_rate;
    }
  }
}

TEST_P(TlbMonotonic, SmallerPagesNeverMissLess) {
  const auto machine = GetParam() == 0 ? hw::phi() : hw::xeon8();
  for (std::uint64_t ws = 16ULL << 20; ws <= 2ULL << 30; ws <<= 2) {
    hw::MemRegion big("b", 8ULL << 30);
    big.set_page_size(hw::PageSize::k1G);
    hw::MemRegion mid("m", 8ULL << 30);
    mid.set_page_size(hw::PageSize::k2M);
    hw::MemRegion small("s", 8ULL << 30);
    small.set_page_size(hw::PageSize::k4K);
    const auto rb = hw::translation_cost(machine.tlb, big, ws,
                                         hw::AccessPattern::kRandom);
    const auto rm = hw::translation_cost(machine.tlb, mid, ws,
                                         hw::AccessPattern::kRandom);
    const auto rs = hw::translation_cost(machine.tlb, small, ws,
                                         hw::AccessPattern::kRandom);
    EXPECT_LE(rb.tlb_miss_rate, rm.tlb_miss_rate + 1e-12);
    EXPECT_LE(rm.tlb_miss_rate, rs.tlb_miss_rate + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, TlbMonotonic, ::testing::Values(0, 1));

// ------------------------------------------------------------------
// Random task graphs complete, for every team size.
// ------------------------------------------------------------------

class TaskGraphProperty : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(TaskGraphProperty, RandomNestedGraphsComplete) {
  const auto [threads, seed] = GetParam();
  sim::Engine engine(static_cast<std::uint64_t>(seed));
  nautilus::NautilusKernel nk(engine, hw::phi());
  nk.set_env("OMP_NUM_THREADS", std::to_string(threads));
  pthread_compat::Pthreads pt(nk, pthread_compat::nautilus_native_tuning());

  int created = 0;
  int executed = 0;
  std::function<void(komp::TeamThread&, sim::Rng&, int)> spawn_random =
      [&](komp::TeamThread& tt, sim::Rng& rng, int depth) {
        ++executed;
        if (depth == 0) return;
        const int kids = static_cast<int>(rng.uniform_int(0, 3));
        for (int k = 0; k < kids; ++k) {
          ++created;
          const auto child_seed = rng.next_u64();
          tt.task([&spawn_random, child_seed, depth](komp::TeamThread& ex) {
            sim::Rng child_rng(child_seed);
            spawn_random(ex, child_rng, depth - 1);
          });
        }
        if (rng.bernoulli(0.5)) tt.taskwait();
      };

  nk.spawn_thread(
      "main",
      [&] {
        komp::Runtime rt(pt);
        rt.parallel([&](komp::TeamThread& tt) {
          sim::Rng rng(static_cast<std::uint64_t>(seed) * 977 +
                       static_cast<std::uint64_t>(tt.id()));
          ++created;  // count the root "task" (the implicit one)
          spawn_random(tt, rng, 4);
        });
      },
      0);
  engine.run();
  // Every created task ran exactly once (executed counts roots too).
  EXPECT_EQ(executed, created);
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, TaskGraphProperty,
    ::testing::Combine(::testing::Values(1, 4, 16),
                       ::testing::Values(11, 22, 33, 44)));

// ------------------------------------------------------------------
// Full-stack determinism: every path, same seed -> identical time.
// ------------------------------------------------------------------

class PathDeterminism
    : public ::testing::TestWithParam<core::PathKind> {};

TEST_P(PathDeterminism, SameSeedSameVirtualTime) {
  auto run_once = [&] {
    core::StackConfig cfg;
    cfg.machine = "phi";
    cfg.path = GetParam();
    cfg.num_threads = 8;
    cfg.app_static_bytes = 0;
    auto stack = core::Stack::create(cfg);
    if (stack->is_omp_path()) {
      stack->run_omp_app([](komp::Runtime& rt) {
        rt.parallel([](komp::TeamThread& tt) {
          tt.for_loop(komp::Schedule::kDynamic, 2, 0, 64,
                      [&](std::int64_t b, std::int64_t e) {
                        tt.compute_ns(5000 * (e - b));
                      });
        });
        return 0;
      });
    } else {
      stack->run_cck_app([](osal::Os& os, virgil::Virgil& vg) {
        virgil::CountdownLatch latch(os, 32);
        for (int i = 0; i < 32; ++i) {
          vg.submit([&os, &latch] {
            os.compute_ns(5000);
            latch.count_down();
          });
        }
        latch.wait();
        return 0;
      });
    }
    return stack->engine().now();
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(
    AllPaths, PathDeterminism,
    ::testing::Values(core::PathKind::kLinuxOmp, core::PathKind::kRtk,
                      core::PathKind::kPik, core::PathKind::kAutoMpLinux,
                      core::PathKind::kAutoMpNautilus));

// ------------------------------------------------------------------
// Ready-queue policies: worksharing coverage and dispatch determinism
// must survive schedule perturbation (fifo / random / PCT), per seed.
// ------------------------------------------------------------------

using SchedPolicyCase = std::tuple<sim::SchedPolicy, std::uint64_t /*seed*/>;

class SchedPolicyProperty : public ::testing::TestWithParam<SchedPolicyCase> {
 protected:
  struct Run {
    std::map<std::int64_t, int> hits;
    sim::Time end_time = 0;
    sim::Engine::Stats stats;
  };

  Run run_once(bool racecheck = false) {
    const auto [policy, seed] = GetParam();
    core::StackConfig cfg;
    cfg.machine = "phi";
    cfg.path = core::PathKind::kRtk;
    cfg.num_threads = 4;
    cfg.app_static_bytes = 0;
    cfg.sched.policy = policy;
    cfg.sched.seed = seed;
    cfg.racecheck = racecheck;
    auto stack = core::Stack::create(cfg);
    Run run;
    stack->run_omp_app([&](komp::Runtime& rt) {
      rt.parallel([&](komp::TeamThread& tt) {
        tt.for_loop(komp::Schedule::kDynamic, 3, 0, 97,
                    [&](std::int64_t b, std::int64_t e) {
                      for (std::int64_t i = b; i < e; ++i) ++run.hits[i];
                      tt.compute_ns(1000);
                    });
        for (int i = 0; i < 4; ++i) {
          tt.task([](komp::TeamThread& ex) { ex.compute_ns(500); });
        }
        tt.barrier();
      });
      return 0;
    });
    run.end_time = stack->engine().now();
    run.stats = stack->engine().stats();
    return run;
  }
};

TEST_P(SchedPolicyProperty, CoverageHoldsUnderAnyInterleaving) {
  const auto run = run_once();
  ASSERT_EQ(run.hits.size(), 97u);
  for (const auto& [i, count] : run.hits)
    ASSERT_EQ(count, 1) << "iteration " << i;
}

TEST_P(SchedPolicyProperty, SameSeedSameDispatchDigest) {
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.stats.dispatch_digest, b.stats.dispatch_digest);
}

// An attached race checker sends every wake through the queue and
// run(), so the race-checked run is the reference for sleep_for's
// run-ahead and for block()'s handoff.
TEST_P(SchedPolicyProperty, RunAheadMatchesTheQueuePath) {
  const auto plain = run_once();
  const auto queued = run_once(/*racecheck=*/true);
  EXPECT_EQ(plain.end_time, queued.end_time);
  EXPECT_EQ(plain.stats.dispatch_digest, queued.stats.dispatch_digest);
  EXPECT_EQ(plain.stats.events_dispatched, queued.stats.events_dispatched);
  EXPECT_EQ(plain.stats.peak_queue_depth, queued.stats.peak_queue_depth);
  EXPECT_EQ(plain.stats.stale_wakes, queued.stats.stale_wakes);
  EXPECT_GT(plain.stats.run_ahead, 0u);
  EXPECT_EQ(queued.stats.run_ahead, 0u);
  EXPECT_GT(plain.stats.handoffs, 0u);
  EXPECT_EQ(queued.stats.handoffs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SchedPolicyProperty,
    ::testing::Combine(::testing::Values(sim::SchedPolicy::kFifo,
                                         sim::SchedPolicy::kRandom,
                                         sim::SchedPolicy::kPct),
                       ::testing::Values<std::uint64_t>(1, 7, 42)));

// ------------------------------------------------------------------
// Far horizon: events many milliseconds ahead of the clock (up to 500
// horizons of 1024 * 8192 ns) must fire in exact time order,
// interleaved with near-term traffic.
// ------------------------------------------------------------------

class OverflowHorizon : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverflowHorizon, FarFutureSleepsFireInOrder) {
  const sim::Time horizon = sim::Time{1024} * 8192;
  sim::Engine engine(GetParam());
  sim::Rng rng(GetParam() * 1315423911ULL + 1);

  // A mix of posts within one horizon and posts up to ~500 horizons out,
  // shuffled so insertion order correlates with nothing.
  std::vector<sim::Time> deadlines;
  for (int i = 0; i < 200; ++i) {
    deadlines.push_back(rng.uniform_int(1, static_cast<std::int64_t>(horizon)));
  }
  for (int i = 0; i < 200; ++i) {
    deadlines.push_back(
        horizon + rng.uniform_int(1, 500 * static_cast<std::int64_t>(horizon)));
  }
  for (std::size_t i = deadlines.size() - 1; i > 0; --i) {
    std::swap(deadlines[i],
              deadlines[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }

  std::vector<sim::Time> fired;
  for (const sim::Time t : deadlines) {
    engine.post_at(t, [&fired, &engine] { fired.push_back(engine.now()); });
  }
  // Plus fibers whose sleeps hop the horizon repeatedly, so far-future
  // wakes keep joining a queue that already holds far-future posts.
  std::vector<sim::Time> wakes;
  for (int t = 0; t < 3; ++t) {
    auto* st = engine.spawn("sleeper" + std::to_string(t), [&, t] {
      for (int hop = 0; hop < 5; ++hop) {
        engine.sleep_for(horizon * static_cast<sim::Time>(t + 2) + 13);
        wakes.push_back(engine.now());
      }
    });
    engine.wake(st);
  }
  engine.run();

  ASSERT_EQ(fired.size(), deadlines.size());
  std::vector<sim::Time> sorted = deadlines;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    // Fired at the exact requested instant, in global time order.
    ASSERT_EQ(fired[i], sorted[i]) << "event " << i;
  }
  ASSERT_EQ(wakes.size(), 15u);
  for (std::size_t i = 1; i < wakes.size(); ++i)
    ASSERT_GE(wakes[i], wakes[i - 1]);
}

TEST_P(OverflowHorizon, DigestIsStableAcrossRuns) {
  auto once = [&] {
    const sim::Time horizon = sim::Time{1024} * 8192;
    sim::Engine engine(GetParam(), {sim::SchedPolicy::kPct, GetParam()});
    for (int t = 0; t < 4; ++t) {
      auto* st = engine.spawn("hopper" + std::to_string(t), [&engine, horizon,
                                                            t] {
        // Alternate short hops with jumps most of a horizon out, so
        // near and far wake events keep interleaving.
        for (int hop = 0; hop < 4; ++hop)
          engine.sleep_for((t + 1) * 3 *
                           (hop % 2 == 0 ? sim::Time(1) : horizon / 2));
      });
      engine.wake(st);
    }
    engine.post_at(90 * horizon, [] {});
    engine.run();
    return engine.stats().dispatch_digest;
  };
  EXPECT_EQ(once(), once());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverflowHorizon,
                         ::testing::Values(1, 17, 23));

}  // namespace
}  // namespace kop

// Appended coverage: compiler fuzzing -- random loop bodies must keep
// the parallelizer's invariants.
#include "cck/parallelizer.hpp"
#include "cck/pdg.hpp"

namespace kop {
namespace {

class CompilerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompilerFuzz, PlansAreConsistentWithThePdg) {
  sim::Rng rng(GetParam());
  cck::Function fn;
  fn.name = "main";
  fn.declare({"arr", 1 << 20, true});
  fn.declare({"work", 1 << 16, true});
  fn.declare({"s1", 8, false});
  fn.declare({"s2", 8, false});
  const char* vars[] = {"arr", "work", "s1", "s2"};

  for (int trial = 0; trial < 30; ++trial) {
    cck::Loop loop;
    loop.name = "fuzz";
    loop.trip = 1 + static_cast<std::int64_t>(rng.uniform_int(0, 5000));
    loop.omp.parallel_for = rng.bernoulli(0.7);
    if (rng.bernoulli(0.3)) loop.omp.private_vars.push_back("work");
    if (rng.bernoulli(0.3)) loop.omp.private_vars.push_back("s1");
    if (rng.bernoulli(0.2)) loop.omp.reduction_vars.push_back("s2");
    const int stmts = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int s = 0; s < stmts; ++s) {
      cck::Stmt st;
      st.label = "s" + std::to_string(s);
      st.est_cost_ns = rng.uniform(50.0, 5000.0);
      const int accesses = 1 + static_cast<int>(rng.uniform_int(0, 3));
      for (int a = 0; a < accesses; ++a) {
        cck::Access acc;
        acc.var = vars[rng.uniform_int(0, 3)];
        acc.write = rng.bernoulli(0.5);
        acc.per_iteration = rng.bernoulli(0.6);
        acc.carried = !acc.per_iteration && rng.bernoulli(0.3);
        st.accesses.push_back(acc);
      }
      loop.body.push_back(st);
    }
    loop.exec.per_iter_ns = loop.est_iter_cost_ns();

    const cck::Pdg pdg = cck::Pdg::build(fn, loop, true);
    cck::Parallelizer par(cck::ParallelizerOptions{true, 50'000.0, 16});
    const cck::LoopPlan plan = par.plan(fn, loop);

    // 1. DOALL if and only if the metadata-aware PDG is carried-free.
    if (plan.tech == cck::Technique::kDoall) {
      EXPECT_FALSE(pdg.has_loop_carried_dep());
    }
    if (!pdg.has_loop_carried_dep()) {
      EXPECT_EQ(plan.tech, cck::Technique::kDoall);
    }

    // 2. Chunks stay within the iteration space.
    if (plan.tech != cck::Technique::kSequential) {
      EXPECT_GE(plan.chunk, 1);
      EXPECT_LE(plan.chunk, std::max<std::int64_t>(1, loop.trip));
    }

    // 3. Privatization notes only appear when the PDG recorded a
    // blocked object.
    for (const auto& note : plan.notes) {
      if (note.find("privatization") != std::string::npos) {
        EXPECT_FALSE(pdg.unsupported_privatization().empty());
      }
    }

    // 4. Pipeline fractions are sane.
    EXPECT_GE(plan.parallel_fraction, 0.0);
    EXPECT_LE(plan.parallel_fraction, 1.0);

    // 5. The report printer never crashes on fuzzed shapes.
    (void)pdg.to_dot(loop);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompilerFuzz,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace kop

// Failure injection: the stack must fail loudly and precisely --
// deadlocks are detected and named, exceptions propagate out of
// fibers, misconfigured paths are rejected, resources survive
// exhaustion, and oversubscription still makes progress.
#include <gtest/gtest.h>

#include "core/stack.hpp"
#include "harness/experiment.hpp"
#include "linuxmodel/linux_os.hpp"
#include "nautilus/buddy.hpp"
#include "nautilus/kernel.hpp"
#include "osal/sync.hpp"
#include "pthread_compat/pthreads.hpp"

namespace kop {
namespace {

TEST(Failure, ExceptionInSimThreadPropagatesToRun) {
  sim::Engine engine;
  auto* t = engine.spawn("thrower", [] {
    throw std::runtime_error("app exploded");
  });
  engine.wake(t);
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Failure, AbbaDeadlockIsDetectedAndNamed) {
  sim::Engine engine;
  nautilus::NautilusKernel nk(engine, hw::phi());
  osal::Mutex a(nk), b(nk);
  nk.spawn_thread(
      "locker-ab",
      [&] {
        a.lock();
        engine.sleep_for(1000);
        b.lock();  // never succeeds
        b.unlock();
        a.unlock();
      },
      0);
  nk.spawn_thread(
      "locker-ba",
      [&] {
        b.lock();
        engine.sleep_for(1000);
        a.lock();  // never succeeds
        a.unlock();
        b.unlock();
      },
      1);
  try {
    engine.run();
    FAIL() << "expected SimDeadlock";
  } catch (const sim::SimDeadlock& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("locker-ab"), std::string::npos);
    EXPECT_NE(what.find("locker-ba"), std::string::npos);
  }
}

// Failure detection must hold under *every* scheduling policy, not
// just the FIFO order the tests above happen to exercise: a fuzzer
// that explores schedules is only useful if deadlocks and fiber
// exceptions stay loud on each of them.
class FailureUnderPolicy
    : public ::testing::TestWithParam<sim::SchedPolicy> {};

TEST_P(FailureUnderPolicy, AbbaDeadlockIsDetectedAndNamed) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sim::SchedConfig sched;
    sched.policy = GetParam();
    sched.seed = seed;
    sim::Engine engine(42, sched);
    nautilus::NautilusKernel nk(engine, hw::phi());
    osal::Mutex a(nk), b(nk);
    nk.spawn_thread(
        "locker-ab",
        [&] {
          a.lock();
          engine.sleep_for(1000);
          b.lock();
          b.unlock();
          a.unlock();
        },
        0);
    nk.spawn_thread(
        "locker-ba",
        [&] {
          b.lock();
          engine.sleep_for(1000);
          a.lock();
          a.unlock();
          b.unlock();
        },
        1);
    try {
      engine.run();
      FAIL() << "expected SimDeadlock (seed " << seed << ")";
    } catch (const sim::SimDeadlock& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("locker-ab"), std::string::npos) << what;
      EXPECT_NE(what.find("locker-ba"), std::string::npos) << what;
      // The message must carry the schedule so the hang replays.
      EXPECT_NE(what.find(sim::sched_policy_name(sched.policy)),
                std::string::npos)
          << what;
    }
  }
}

TEST_P(FailureUnderPolicy, FiberExceptionPropagatesToRun) {
  sim::SchedConfig sched;
  sched.policy = GetParam();
  sched.seed = 3;
  sim::Engine engine(42, sched);
  auto* quiet = engine.spawn("bystander", [] {});
  auto* t = engine.spawn("thrower", [] {
    throw std::runtime_error("app exploded");
  });
  engine.wake(quiet);
  engine.wake(t);
  EXPECT_THROW(engine.run(), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Policies, FailureUnderPolicy,
                         ::testing::Values(sim::SchedPolicy::kRandom,
                                           sim::SchedPolicy::kPct),
                         [](const auto& info) {
                           return std::string(
                               sim::sched_policy_name(info.param));
                         });

TEST(Failure, LostCondvarSignalDeadlocksLoudly) {
  sim::Engine engine;
  nautilus::NautilusKernel nk(engine, hw::phi());
  osal::WaitQueue gate(nk);
  nk.spawn_thread("forever", [&] { gate.wait(0); }, 0);
  EXPECT_THROW(engine.run(), sim::SimDeadlock);
}

TEST(Failure, WrongAppKindOnPathIsRejected) {
  core::StackConfig cfg;
  cfg.path = core::PathKind::kRtk;
  cfg.num_threads = 2;
  auto rtk = core::Stack::create(cfg);
  EXPECT_THROW(
      rtk->run_cck_app([](osal::Os&, virgil::Virgil&) { return 0; }),
      std::logic_error);

  cfg.path = core::PathKind::kAutoMpLinux;
  auto automp = core::Stack::create(cfg);
  EXPECT_THROW(automp->run_omp_app([](komp::Runtime&) { return 0; }),
               std::logic_error);
}

TEST(Failure, EpccOnCckPathIsRejected) {
  core::StackConfig cfg;
  cfg.path = core::PathKind::kAutoMpNautilus;
  cfg.num_threads = 4;
  cfg.app_static_bytes = 0;
  EXPECT_THROW(harness::run_epcc(cfg, harness::EpccPart::kSync),
               std::invalid_argument);
}

TEST(Failure, BuddyRecoversAfterExhaustion) {
  nautilus::BuddyAllocator buddy(0, 1ULL << 20, 4096);
  std::vector<std::uint64_t> blocks;
  try {
    for (;;) blocks.push_back(buddy.alloc(64 * 1024));
  } catch (const nautilus::BuddyError&) {
  }
  EXPECT_EQ(buddy.free_bytes(), 0u);
  // Free half, allocate again.
  for (std::size_t i = 0; i < blocks.size(); i += 2) buddy.free(blocks[i]);
  EXPECT_NO_THROW(buddy.alloc(64 * 1024));
}

TEST(Failure, OversubscribedCpusStillProgress) {
  // 8 threads pinned to one CPU on the (timesliced) Linux model.
  sim::Engine engine(5);
  linuxmodel::LinuxOs os(engine, hw::phi());
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    os.spawn_thread(
        "t" + std::to_string(i),
        [&] {
          os.compute_ns(20 * sim::kMillisecond);
          ++done;
        },
        /*cpu=*/0);
  }
  engine.run();
  EXPECT_EQ(done, 8);
  // One CPU did all the work: at least 160ms of virtual time passed.
  EXPECT_GE(engine.now(), 160 * sim::kMillisecond);
}

TEST(Failure, ZeroTripLoopAndEmptySectionsAreSafe) {
  sim::Engine engine(6);
  nautilus::NautilusKernel nk(engine, hw::phi());
  nk.set_env("OMP_NUM_THREADS", "4");
  pthread_compat::Pthreads pt(nk, pthread_compat::nautilus_native_tuning());
  bool finished = false;
  nk.spawn_thread(
      "main",
      [&] {
        komp::Runtime rt(pt);
        rt.parallel([&](komp::TeamThread& tt) {
          tt.for_loop(komp::Schedule::kDynamic, 1, 0, 0,
                      [&](std::int64_t, std::int64_t) { ADD_FAILURE(); });
          tt.sections({});
          tt.taskwait();  // no tasks: immediate
        });
        finished = true;
      },
      0);
  engine.run();
  EXPECT_TRUE(finished);
}

TEST(Failure, SetNumThreadsRejectsNonPositive) {
  core::StackConfig cfg;
  cfg.path = core::PathKind::kLinuxOmp;
  cfg.num_threads = 2;
  auto stack = core::Stack::create(cfg);
  stack->run_omp_app([](komp::Runtime& rt) {
    EXPECT_THROW(rt.set_num_threads(0), std::invalid_argument);
    EXPECT_THROW(rt.set_num_threads(-3), std::invalid_argument);
    rt.set_num_threads(100000);  // clamped to the machine
    EXPECT_EQ(rt.max_threads(), 64);
    return 0;
  });
}

TEST(Failure, UnknownMachineAndBenchmarkNamesThrow) {
  core::StackConfig cfg;
  cfg.machine = "cray-1";
  EXPECT_THROW(core::Stack::create(cfg), std::invalid_argument);
  EXPECT_THROW(nas::by_name("HPL"), std::invalid_argument);
}

TEST(Failure, LatchMisuseThrows) {
  sim::Engine engine(8);
  nautilus::NautilusKernel nk(engine, hw::phi());
  EXPECT_THROW(virgil::CountdownLatch(nk, -1), std::invalid_argument);
}

}  // namespace
}  // namespace kop

// Tests for the VIRGIL task runtimes (kernel and user flavors of
// osal::TaskQueues) and the CountdownLatch join primitive.
#include <gtest/gtest.h>

#include <vector>

#include "linuxmodel/linux_os.hpp"
#include "nautilus/kernel.hpp"
#include "virgil/virgil.hpp"

namespace kop::virgil {
namespace {

TEST(Latch, CountsDownAndReleases) {
  sim::Engine eng(1);
  nautilus::NautilusKernel nk(eng, hw::phi());
  bool released = false;
  nk.spawn_thread(
      "main",
      [&] {
        CountdownLatch latch(nk, 3);
        for (int i = 0; i < 3; ++i) {
          nk.spawn_thread(
              "w" + std::to_string(i),
              [&] {
                eng.sleep_for(1000);
                latch.count_down();
              },
              i + 1);
        }
        latch.wait();
        released = true;
        EXPECT_EQ(latch.remaining(), 0);
      },
      0);
  eng.run();
  EXPECT_TRUE(released);
}

TEST(Latch, ZeroCountWaitReturnsImmediately) {
  sim::Engine eng(2);
  nautilus::NautilusKernel nk(eng, hw::phi());
  bool ok = false;
  nk.spawn_thread(
      "main",
      [&] {
        CountdownLatch latch(nk, 0);
        latch.wait();
        ok = true;
      },
      0);
  eng.run();
  EXPECT_TRUE(ok);
}

TEST(Latch, UnderflowThrows) {
  sim::Engine eng(3);
  nautilus::NautilusKernel nk(eng, hw::phi());
  bool threw = false;
  nk.spawn_thread(
      "main",
      [&] {
        CountdownLatch latch(nk, 1);
        latch.count_down();
        try {
          latch.count_down();
        } catch (const std::logic_error&) {
          threw = true;
        }
      },
      0);
  eng.run();
  EXPECT_TRUE(threw);
}

/// An 8-lane pool on PHI: the Nautilus kernel's own task system
/// (kernel VIRGIL), or user VIRGIL on the Linux model.
struct PoolOnPhi {
  PoolOnPhi(bool kernel, std::uint64_t seed) : eng(seed) {
    if (kernel) {
      auto nk = std::make_unique<nautilus::NautilusKernel>(eng, hw::phi());
      pool = &nk->task_system();
      os = std::move(nk);
    } else {
      os = std::make_unique<linuxmodel::LinuxOs>(eng, hw::phi());
      user = std::make_unique<Virgil>(*os, osal::TaskQueues::kUser, 8);
      pool = user.get();
    }
  }

  /// Runs `body` on a main thread between start(8) and stop().
  void run(const std::function<void(osal::Os&, Virgil&)>& body) {
    os->spawn_thread(
        "main",
        [&] {
          pool->start(8);
          body(*os, *pool);
          pool->stop();
        },
        0);
    eng.run();
  }

  sim::Engine eng;
  std::unique_ptr<osal::Os> os;
  std::unique_ptr<Virgil> user;
  Virgil* pool = nullptr;
};

TEST(KernelVirgil, ExecutesViaTaskSystem) {
  sim::Engine eng(4);
  nautilus::NautilusKernel nk(eng, hw::phi());
  int done = 0;
  nk.spawn_thread(
      "main",
      [&] {
        nk.task_system().start(8);
        Virgil& vg = nk.task_system();
        EXPECT_EQ(vg.width(), 8);
        EXPECT_TRUE(vg.kernel());
        CountdownLatch latch(nk, 32);
        for (int i = 0; i < 32; ++i) {
          vg.submit([&] {
            nk.compute_ns(5000);
            ++done;
            latch.count_down();
          });
        }
        latch.wait();
        nk.task_system().stop();
      },
      0);
  eng.run();
  EXPECT_EQ(done, 32);
  EXPECT_EQ(nk.task_system().executed(), 32u);
}

TEST(UserVirgil, ExecutesOnWorkerPool) {
  sim::Engine eng(5);
  linuxmodel::LinuxOs os(eng, hw::phi());
  int done = 0;
  os.spawn_thread(
      "main",
      [&] {
        Virgil vg(os, osal::TaskQueues::kUser, 4);
        vg.start();
        EXPECT_EQ(vg.width(), 4);
        EXPECT_FALSE(vg.kernel());
        CountdownLatch latch(os, 16);
        for (int i = 0; i < 16; ++i) {
          vg.submit([&] {
            os.compute_ns(2000);
            ++done;
            latch.count_down();
          });
        }
        latch.wait();
        vg.stop();
      },
      0);
  eng.run();
  EXPECT_EQ(done, 16);
}

TEST(UserVirgil, TasksSubmittedFromTasksComplete) {
  sim::Engine eng(6);
  linuxmodel::LinuxOs os(eng, hw::phi());
  int done = 0;
  os.spawn_thread(
      "main",
      [&] {
        Virgil vg(os, osal::TaskQueues::kUser, 4);
        vg.start();
        CountdownLatch latch(os, 8);
        for (int i = 0; i < 4; ++i) {
          vg.submit([&] {
            latch.count_down();
            vg.submit([&] {
              ++done;
              latch.count_down();
            });
          });
        }
        latch.wait();
        vg.stop();
      },
      0);
  eng.run();
  EXPECT_EQ(done, 4);
}

TEST(Virgil, KernelDispatchCheaperThanUser) {
  // The CCK premise: kernel task dispatch (SoftIRQ veneer) beats the
  // user-level pool with futex wakes for fine-grained tasks.
  auto measure = [](bool kernel) {
    PoolOnPhi p(kernel, 7);
    sim::Time elapsed = 0;
    p.run([&](osal::Os& os, Virgil& vg) {
      const sim::Time t0 = os.engine().now();
      CountdownLatch latch(os, 512);
      for (int i = 0; i < 512; ++i)
        vg.submit([&] {
          os.compute_ns(1000);
          latch.count_down();
        });
      latch.wait();
      elapsed = os.engine().now() - t0;
    });
    return elapsed;
  };
  EXPECT_LT(measure(/*kernel=*/true), measure(/*kernel=*/false));
}

class PoolSteals : public ::testing::TestWithParam<bool> {};

TEST_P(PoolSteals, StealsFromLoadedQueues) {
  PoolOnPhi p(/*kernel=*/GetParam(), 2);
  int executed = 0;
  p.run([&](osal::Os& os, Virgil& vg) {
    // Everything lands on lane 0's queue; idle workers must steal.
    for (int i = 0; i < 64; ++i)
      vg.enqueue(
          [&] {
            os.compute_ns(50'000);
            ++executed;
          },
          0);
    while (vg.pending() > 0 || executed < 64) os.engine().sleep_for(50'000);
  });
  EXPECT_EQ(executed, 64);
  EXPECT_GT(p.pool->steals(), 0u);
  EXPECT_EQ(p.pool->steals(),
            p.os->counters().total(telemetry::Counter::kTaskSteals));
}

INSTANTIATE_TEST_SUITE_P(BothFlavors, PoolSteals, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "kernel" : "user";
                         });

// ------------------------------------------- one burst on each pool
//
// Pins one burst per flavor: its finishing time, task and steal counts
// and per-lane rt_task events.  A change to the walk, the steal end or
// a flavor's costs moves them.

/// Per-lane rt_task counts over lanes 0..7.
struct LaneEvents : ompt::Tool {
  std::vector<int> submit = std::vector<int>(8);
  std::vector<int> execute = std::vector<int>(8);
  std::vector<int> stolen = std::vector<int>(8);
  void on_rt_task_submit(ompt::TaskRuntimeKind, sim::Time, int lane) override {
    ++submit.at(static_cast<std::size_t>(lane));
  }
  void on_rt_task_execute(ompt::TaskRuntimeKind, ompt::Endpoint e, sim::Time,
                          int lane, bool was_stolen) override {
    if (e != ompt::Endpoint::kBegin) return;
    ++execute.at(static_cast<std::size_t>(lane));
    if (was_stolen) ++stolen.at(static_cast<std::size_t>(lane));
  }
};

struct Burst {
  sim::Time finish_ns = 0;
  std::uint64_t executed = 0;
  std::uint64_t steals = 0;  // the OS's kTaskSteals total
  LaneEvents lanes;
};

/// 48 tasks of uneven length submitted from the calling thread; every
/// third one submits a nested task, so 64 tasks run in all.
void run_burst(osal::Os& os, Virgil& vg, Burst& out) {
  constexpr int kTop = 48;
  CountdownLatch latch(os, kTop + kTop / 3);
  for (int i = 0; i < kTop; ++i) {
    vg.submit([&os, &vg, &latch, i] {
      os.compute_ns(2'000 + (i % 7) * 900);
      if (i % 3 == 0) {
        vg.submit([&os, &latch] {
          os.compute_ns(1'500);
          latch.count_down();
        });
      }
      latch.count_down();
    });
  }
  latch.wait();
  out.finish_ns = os.engine().now();
}

/// The burst on 8 PHI lanes of the kernel's task system (`kernel`) or
/// of user VIRGIL.
Burst burst_on(bool kernel) {
  PoolOnPhi p(kernel, 8);
  Burst b;
  p.os->tools().attach(&b.lanes);
  p.run([&](osal::Os& os, Virgil& vg) { run_burst(os, vg, b); });
  b.executed = p.pool->executed();
  b.steals = p.os->counters().total(telemetry::Counter::kTaskSteals);
  return b;
}

TEST(PoolBurst, KernelFlavorIsPinned) {
  const Burst b = burst_on(/*kernel=*/true);
  EXPECT_EQ(b.finish_ns, 101'037);
  EXPECT_EQ(b.executed, 64u);
  EXPECT_EQ(b.steals, 20u);
  EXPECT_EQ(b.lanes.submit, (std::vector<int>{8, 8, 8, 8, 8, 8, 8, 8}));
  EXPECT_EQ(b.lanes.execute, (std::vector<int>{11, 9, 8, 8, 7, 7, 6, 8}));
  EXPECT_EQ(b.lanes.stolen, (std::vector<int>{5, 3, 2, 2, 3, 2, 2, 1}));
}

TEST(PoolBurst, UserFlavorIsPinned) {
  const Burst b = burst_on(/*kernel=*/false);
  EXPECT_EQ(b.finish_ns, 430'233);
  EXPECT_EQ(b.executed, 64u);
  EXPECT_EQ(b.steals, 16u);
  EXPECT_EQ(b.lanes.submit, (std::vector<int>{8, 8, 8, 8, 8, 8, 8, 8}));
  EXPECT_EQ(b.lanes.execute, (std::vector<int>{10, 8, 8, 6, 6, 5, 8, 13}));
  EXPECT_EQ(b.lanes.stolen, (std::vector<int>{3, 2, 2, 1, 1, 0, 1, 6}));
}

}  // namespace
}  // namespace kop::virgil

// Tests for the OS abstraction layer: Os thread plumbing, the
// wait queue (spin-vs-sleep wake costs, stack waiters), and the shared
// synchronization primitives.
#include <gtest/gtest.h>

#include "hw/cost_params.hpp"
#include "linuxmodel/linux_os.hpp"
#include "nautilus/kernel.hpp"
#include "osal/sync.hpp"

namespace kop::osal {
namespace {

// A NautilusKernel doubles as the concrete Os for most OSAL tests.
struct NkFixture {
  sim::Engine engine{42};
  nautilus::NautilusKernel os{engine, hw::phi()};
};

TEST(Os, SpawnJoinAndCurrent) {
  NkFixture f;
  int observed_cpu = -1;
  Thread* inner = nullptr;
  auto* main = f.os.spawn_thread(
      "main",
      [&] {
        inner = f.os.spawn_thread(
            "worker", [&] { observed_cpu = f.os.current_cpu(); }, 5);
        f.os.join_thread(inner);
      },
      0);
  (void)main;
  f.engine.run();
  EXPECT_EQ(observed_cpu, 5);
  EXPECT_TRUE(inner->done());
}

TEST(Os, ComputeAdvancesTimeAndOccupiesCpu) {
  NkFixture f;
  sim::Time elapsed = 0;
  f.os.spawn_thread(
      "t",
      [&] {
        const sim::Time t0 = f.engine.now();
        f.os.compute_ns(10'000);
        elapsed = f.engine.now() - t0;
      },
      0);
  f.engine.run();
  EXPECT_GE(elapsed, 10'000);
  // Nautilus code generation carries the no-red-zone inflation.
  const auto expected = static_cast<sim::Time>(
      10'000 * f.os.costs().compute_inflation);
  EXPECT_EQ(f.os.cpu(0).busy_time(), expected);
}

TEST(Os, EnvRoundTripAndSysconf) {
  NkFixture f;
  EXPECT_FALSE(f.os.get_env("OMP_NUM_THREADS").has_value());
  f.os.set_env("OMP_NUM_THREADS", "16");
  EXPECT_EQ(f.os.get_env("OMP_NUM_THREADS").value(), "16");
  EXPECT_EQ(f.os.sys_conf(SysConfKey::kNumProcessors), 64);
  EXPECT_EQ(f.os.sys_conf(SysConfKey::kPageSize), 4096);
}

TEST(WaitQueue, SpinningWakeIsFastSleepingWakeIsSlow) {
  // On Linux costs, a waiter woken within its spin window resumes in
  // ~a cacheline transfer; one woken after the window pays the futex
  // wake path (microseconds).
  sim::Engine engine(7);
  linuxmodel::LinuxOs os(engine, hw::xeon8());
  WaitQueue q(os);

  sim::Time spin_wake_delay = -1, sleep_wake_delay = -1;

  os.spawn_thread(
      "waiter",
      [&] {
        // Case 1: notified at t=+1us, within a 10us spin window.
        sim::Time t0 = engine.now();
        q.wait(/*spin_ns=*/10 * sim::kMicrosecond);
        spin_wake_delay = engine.now() - t0;

        // Case 2: notified at +1ms, long after the window.
        t0 = engine.now();
        q.wait(/*spin_ns=*/10 * sim::kMicrosecond);
        sleep_wake_delay = engine.now() - t0 - sim::kMillisecond;
      },
      0);
  os.spawn_thread(
      "waker",
      [&] {
        engine.sleep_for(sim::kMicrosecond);
        q.notify_one();
        engine.sleep_for(sim::kMillisecond);
        q.notify_one();
      },
      1);
  engine.run();

  EXPECT_GT(spin_wake_delay, 0);
  EXPECT_LT(spin_wake_delay, 2 * sim::kMicrosecond);
  EXPECT_GT(sleep_wake_delay, 2 * sim::kMicrosecond);  // futex path
}

TEST(WaitQueue, TimeoutReturnsFalseAndStaleNotifyIsSafe) {
  NkFixture f;
  WaitQueue q(f.os);
  bool timed_out = false;
  bool second_ok = false;
  f.os.spawn_thread(
      "t",
      [&] {
        timed_out = !q.wait_until(f.engine.now() + 1000, 0);
        // A subsequent wait must still work (queue not corrupted).
        second_ok = q.wait_until(f.engine.now() + sim::kSecond, 0);
      },
      0);
  f.os.spawn_thread(
      "waker",
      [&] {
        f.engine.sleep_for(5000);
        q.notify_one();
      },
      1);
  f.engine.run();
  EXPECT_TRUE(timed_out);
  EXPECT_TRUE(second_ok);
}

TEST(WaitQueue, NotifyAllWakesEveryWaiter) {
  NkFixture f;
  WaitQueue q(f.os);
  int woken = 0;
  for (int i = 0; i < 8; ++i) {
    f.os.spawn_thread(
        "w" + std::to_string(i),
        [&] {
          q.wait(0);
          ++woken;
        },
        i);
  }
  f.os.spawn_thread(
      "waker",
      [&] {
        f.engine.sleep_for(1000);
        q.notify_all();
      },
      8);
  f.engine.run();
  EXPECT_EQ(woken, 8);
}

TEST(WaitQueue, TimedOutMiddleWaiterLeavesFifoOrder) {
  // Waiters sit on their own stacks; the middle one times out and must
  // leave the queue without disturbing the other two's order.
  NkFixture f;
  WaitQueue q(f.os);
  const sim::Time spin = sim::kTimeNever;  // cacheline-cost wakes
  std::vector<std::string> woke;
  bool middle_timed_out = false;
  std::size_t after_timeout = 0;
  std::vector<std::string> after_first;
  f.os.spawn_thread(
      "first",
      [&] {
        q.wait(spin);
        woke.push_back("first");
      },
      0);
  f.os.spawn_thread(
      "middle",
      [&] {
        f.engine.sleep_for(10);
        middle_timed_out = !q.wait_until(f.engine.now() + 1000, spin);
      },
      1);
  f.os.spawn_thread(
      "third",
      [&] {
        f.engine.sleep_for(20);
        q.wait(spin);
        woke.push_back("third");
      },
      2);
  f.os.spawn_thread(
      "waker",
      [&] {
        f.engine.sleep_for(5000);
        after_timeout = q.waiters();
        q.notify_one();
        f.engine.sleep_for(1000);
        after_first = woke;
        q.notify_one();
      },
      3);
  f.engine.run();
  EXPECT_TRUE(middle_timed_out);
  EXPECT_EQ(after_timeout, 2u);
  EXPECT_EQ(after_first, std::vector<std::string>{"first"});
  EXPECT_EQ(woke, (std::vector<std::string>{"first", "third"}));
  EXPECT_EQ(q.waiters(), 0u);
}

TEST(WaitQueue, DeadlineBeforeNotifiedWakeReturnsTrue) {
  // The notify pops the waiter and posts its wake a blocking-wake
  // latency later; the deadline, 1 ns after the notify, dispatches
  // first.  The wait still counts as notified, the late wake is stale,
  // and a later notify_all reaches only the waiters still queued.
  sim::Engine engine(7);
  linuxmodel::LinuxOs os(engine, hw::xeon8());
  WaitQueue q(os);
  bool notified = false;
  sim::Time returned_at = -1;
  int others_woken = 0;
  std::uint64_t stale_before = 0, stale_after_late_wake = 0;
  std::size_t queued_at_broadcast = 0;
  os.spawn_thread(
      "timed",
      [&] {
        notified = q.wait_until(1001, /*spin_ns=*/0);
        returned_at = engine.now();
        engine.sleep_for(sim::kMillisecond);  // a new block() the late wake must miss
      },
      0);
  for (int i = 0; i < 2; ++i) {
    os.spawn_thread(
        "plain" + std::to_string(i),
        [&, i] {
          engine.sleep_for(10 + i);
          q.wait(0);
          ++others_woken;
        },
        1 + i);
  }
  os.spawn_thread(
      "waker",
      [&] {
        engine.sleep_for(1000);
        stale_before = engine.stats().stale_wakes;
        q.notify_one();
        engine.sleep_for(100 * sim::kMicrosecond);
        stale_after_late_wake = engine.stats().stale_wakes;
        queued_at_broadcast = q.waiters();
        q.notify_all();
      },
      3);
  engine.run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(returned_at, 1001);
  EXPECT_EQ(stale_after_late_wake - stale_before, 1u);
  EXPECT_EQ(queued_at_broadcast, 2u);
  EXPECT_EQ(others_woken, 2);
  EXPECT_EQ(engine.stats().stale_wakes, stale_after_late_wake);
  EXPECT_EQ(q.waiters(), 0u);
  // One wake for the notified wait, one each for the two still queued.
  using telemetry::Counter;
  EXPECT_EQ(os.counters().total(Counter::kSpinWakes) +
                os.counters().total(Counter::kBlockingWakes),
            3u);
}

TEST(Sync, MutexProvidesExclusion) {
  NkFixture f;
  Mutex m(f.os);
  int in_critical = 0;
  int max_in_critical = 0;
  int done = 0;
  for (int i = 0; i < 6; ++i) {
    f.os.spawn_thread(
        "t" + std::to_string(i),
        [&] {
          for (int k = 0; k < 5; ++k) {
            m.lock();
            ++in_critical;
            max_in_critical = std::max(max_in_critical, in_critical);
            f.os.compute_ns(500);
            --in_critical;
            m.unlock();
          }
          ++done;
        },
        i);
  }
  f.engine.run();
  EXPECT_EQ(done, 6);
  EXPECT_EQ(max_in_critical, 1);
}

TEST(Sync, TryLock) {
  NkFixture f;
  Mutex m(f.os);
  bool first = false, second = false;
  f.os.spawn_thread(
      "t",
      [&] {
        first = m.try_lock();
        second = m.try_lock();
        m.unlock();
      },
      0);
  f.engine.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
}

TEST(Sync, CondVarSignalAndBroadcast) {
  NkFixture f;
  Mutex m(f.os);
  CondVar cv(f.os);
  bool ready = false;
  int observed = 0;
  for (int i = 0; i < 4; ++i) {
    f.os.spawn_thread(
        "waiter" + std::to_string(i),
        [&] {
          m.lock();
          while (!ready) cv.wait(m);
          ++observed;
          m.unlock();
        },
        i);
  }
  f.os.spawn_thread(
      "signaler",
      [&] {
        f.engine.sleep_for(10'000);
        m.lock();
        ready = true;
        m.unlock();
        cv.broadcast();
      },
      4);
  f.engine.run();
  EXPECT_EQ(observed, 4);
}

TEST(Sync, CondVarTimedWait) {
  NkFixture f;
  Mutex m(f.os);
  CondVar cv(f.os);
  bool notified = true;
  f.os.spawn_thread(
      "t",
      [&] {
        m.lock();
        notified = cv.wait_until(m, f.engine.now() + 2000);
        m.unlock();
      },
      0);
  f.engine.run();
  EXPECT_FALSE(notified);
}

TEST(Sync, BarrierRendezvous) {
  NkFixture f;
  constexpr int kN = 16;
  Barrier bar(f.os, kN);
  std::vector<sim::Time> release_times(kN);
  for (int i = 0; i < kN; ++i) {
    f.os.spawn_thread(
        "t" + std::to_string(i),
        [&, i] {
          f.os.compute_ns(1000 * (i + 1));  // staggered arrivals
          bar.arrive_and_wait();
          release_times[static_cast<std::size_t>(i)] = f.engine.now();
        },
        i);
  }
  f.engine.run();
  // Nobody is released before the slowest arrival.
  for (const auto t : release_times) EXPECT_GE(t, 1000 * kN);
}

TEST(Sync, SemaphoreBounds) {
  NkFixture f;
  Semaphore sem(f.os, 2);
  int concurrently = 0, peak = 0, done = 0;
  for (int i = 0; i < 6; ++i) {
    f.os.spawn_thread(
        "t" + std::to_string(i),
        [&] {
          sem.wait();
          ++concurrently;
          peak = std::max(peak, concurrently);
          f.os.compute_ns(1000);
          --concurrently;
          sem.post();
          ++done;
        },
        i);
  }
  f.engine.run();
  EXPECT_EQ(done, 6);
  EXPECT_LE(peak, 2);
}

TEST(Os, FirstTouchResolvesToToucherZone) {
  sim::Engine engine(1);
  linuxmodel::LinuxOs os(engine, hw::xeon8());
  hw::MemRegion* r =
      os.alloc_region("arr", 1ULL << 30, AllocPolicy::first_touch());
  int zone_cpu0 = -1, zone_cpu100 = -1, zone_cpu0_again = -1;
  os.spawn_thread(
      "a",
      [&] {
        zone_cpu0 = os.resolve_data_zone(r, 0, 2);  // first half
      },
      0);
  os.spawn_thread(
      "b",
      [&] {
        engine.sleep_for(100);
        zone_cpu100 = os.resolve_data_zone(r, 1, 2);  // second half
        zone_cpu0_again = os.resolve_data_zone(r, 1, 2);
      },
      100);
  engine.run();
  EXPECT_EQ(zone_cpu0, 0);    // cpu 0 -> socket 0
  EXPECT_EQ(zone_cpu100, 4);  // cpu 100 -> socket 4
  EXPECT_EQ(zone_cpu0_again, 4);  // sticky after first touch
}

TEST(Os, NextTouchMigrationRehomesEverySliceToItsToucher) {
  // Migration-on-next-touch (the third placement policy): a
  // Nautilus-style immediately-placed single-zone region re-homes each slice to the
  // toucher's preferred DRAM zone on its first access, so a full touch
  // pass ends with zero misplaced accesses.
  sim::Engine engine(1);
  nautilus::NautilusKernel os(engine, hw::xeon8());
  os.set_next_touch_migration(true);
  hw::MemRegion* r =
      os.alloc_region("arr", 1ULL << 30, AllocPolicy::local());
  int zone_a = -1, zone_b = -1, zone_b_again = -1;
  os.spawn_thread(
      "a", [&] { zone_a = os.resolve_data_zone(r, 0, 2); }, 0);
  os.spawn_thread(
      "b",
      [&] {
        engine.sleep_for(100);
        zone_b = os.resolve_data_zone(r, 1, 2);
        zone_b_again = os.resolve_data_zone(r, 1, 2);
      },
      100);
  engine.run();
  EXPECT_EQ(zone_a, 0);
  EXPECT_EQ(zone_b, 4);        // migrated out of the allocation zone
  EXPECT_EQ(zone_b_again, 4);  // one-shot: later touches keep the home
  EXPECT_GT(r->touches(), 0u);
  EXPECT_DOUBLE_EQ(r->misplaced_fraction(), 0.0);
  const auto snap = os.counters().snapshot();
  EXPECT_GT(snap.totals[static_cast<int>(
                telemetry::Counter::kPageMigrations)], 0u);
}

TEST(Os, SimultaneousMigrationsKeepEachOthersSlices) {
  // Two touches of one armed region at the same instant each sleep for
  // their copy; neither may put back the slices the other re-homed
  // meanwhile (their next-touch claims are spent, so a reverted slice
  // would stay misplaced for good).
  sim::Engine engine(1);
  nautilus::NautilusKernel os(engine, hw::xeon8());
  os.set_next_touch_migration(true);
  hw::MemRegion* r =
      os.alloc_region("arr", 1ULL << 30, AllocPolicy::in_zone(2));
  int zone_a = -1, zone_b = -1;
  os.spawn_thread(
      "a", [&] { zone_a = os.resolve_data_zone(r, 0, 2); }, 0);
  os.spawn_thread(
      "b", [&] { zone_b = os.resolve_data_zone(r, 1, 2); }, 100);
  engine.run();
  EXPECT_EQ(zone_a, 0);
  EXPECT_EQ(zone_b, 4);
  EXPECT_EQ(r->zone_for_partition(0, 2), 0);
  EXPECT_EQ(r->zone_for_partition(1, 2), 4);
}

TEST(Os, ImmediatePlacementWithoutMigrationStaysMisplaced) {
  // Control for the test above: same touch pattern, migration off --
  // the remote half keeps the allocation-time home zone and the
  // misplacement shows up in the region's touch stats.
  sim::Engine engine(1);
  nautilus::NautilusKernel os(engine, hw::xeon8());
  hw::MemRegion* r =
      os.alloc_region("arr", 1ULL << 30, AllocPolicy::local());
  int zone_a = -1, zone_b = -1;
  os.spawn_thread(
      "a", [&] { zone_a = os.resolve_data_zone(r, 0, 2); }, 0);
  os.spawn_thread(
      "b",
      [&] {
        engine.sleep_for(100);
        zone_b = os.resolve_data_zone(r, 1, 2);
      },
      100);
  engine.run();
  EXPECT_EQ(zone_a, zone_b);  // both halves stuck in the home zone
  EXPECT_GT(r->misplaced_fraction(), 0.0);
  const auto snap = os.counters().snapshot();
  EXPECT_EQ(snap.totals[static_cast<int>(
                telemetry::Counter::kPageMigrations)], 0u);
}

}  // namespace
}  // namespace kop::osal

// Appended coverage: the Chrome-trace exporter.
namespace kop::osal {
namespace {

TEST(Tracer, RecordsComputeAndExportsChromeJson) {
  sim::Engine engine(13);
  nautilus::NautilusKernel os(engine, hw::phi());
  os.tracer().enable();
  os.spawn_thread(
      "omp-worker-3",
      [&] {
        os.compute_ns(5000);
        os.compute_ns(2000);
      },
      3);
  engine.run();
  ASSERT_EQ(os.tracer().events().size(), 2u);
  EXPECT_EQ(os.tracer().events()[0].cpu, 3);
  EXPECT_EQ(os.tracer().events()[0].name, "omp-worker-3");
  const std::string json = os.tracer().to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("omp-worker-3"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
}

TEST(Tracer, DisabledByDefaultAndClearable) {
  sim::Engine engine(14);
  nautilus::NautilusKernel os(engine, hw::phi());
  os.spawn_thread("t", [&] { os.compute_ns(1000); }, 0);
  engine.run();
  EXPECT_TRUE(os.tracer().events().empty());
  os.tracer().enable();
  os.tracer().record("x\"y", 0, 1, 2);  // quote escaping
  EXPECT_NE(os.tracer().to_chrome_json().find("x\\\"y"), std::string::npos);
  os.tracer().clear();
  EXPECT_TRUE(os.tracer().events().empty());
}

}  // namespace
}  // namespace kop::osal

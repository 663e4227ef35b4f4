// Tests for the Linux substrate: futex table, placement policy,
// syscall charging.
#include <gtest/gtest.h>

#include "linuxmodel/linux_os.hpp"

namespace kop::linuxmodel {
namespace {

struct Fixture {
  sim::Engine engine{11};
  LinuxOs os{engine, hw::phi()};
};

TEST(Futex, WaitWakeRoundTrip) {
  Fixture f;
  int woken = 0;
  f.os.spawn_thread(
      "waiter",
      [&] {
        f.os.futex().wait(0x1000);
        ++woken;
      },
      0);
  f.os.spawn_thread(
      "waker",
      [&] {
        f.engine.sleep_for(1000);
        EXPECT_EQ(f.os.futex().wake(0x1000, 1), 1);
        EXPECT_EQ(f.os.futex().wake(0x1000, 1), 0);  // nobody left
      },
      1);
  f.engine.run();
  EXPECT_EQ(woken, 1);
}

TEST(Futex, WakeCountLimitsWaiters) {
  Fixture f;
  int woken = 0;
  for (int i = 0; i < 4; ++i) {
    f.os.spawn_thread(
        "w" + std::to_string(i),
        [&] {
          f.os.futex().wait(0x2000);
          ++woken;
        },
        i);
  }
  f.os.spawn_thread(
      "waker",
      [&] {
        f.engine.sleep_for(1000);
        EXPECT_EQ(f.os.futex().wake(0x2000, 2), 2);
        f.engine.sleep_for(1000);
        EXPECT_EQ(f.os.futex().wake(0x2000, 10), 2);
      },
      5);
  f.engine.run();
  EXPECT_EQ(woken, 4);
}

TEST(Futex, DistinctAddressesAreIndependent) {
  Fixture f;
  bool woken_a = false;
  f.os.spawn_thread(
      "a",
      [&] {
        f.os.futex().wait(0xA);
        woken_a = true;
      },
      0);
  f.os.spawn_thread(
      "b",
      [&] {
        f.engine.sleep_for(500);
        EXPECT_EQ(f.os.futex().wake(0xB, 1), 0);  // wrong address
        EXPECT_EQ(f.os.futex().wake(0xA, 1), 1);
      },
      1);
  f.engine.run();
  EXPECT_TRUE(woken_a);
}

TEST(Futex, TimedWait) {
  Fixture f;
  bool notified = true;
  f.os.spawn_thread(
      "t",
      [&] {
        notified = f.os.futex().wait_until(0xC, f.engine.now() + 5000);
      },
      0);
  f.engine.run();
  EXPECT_FALSE(notified);
}

TEST(Placement, DefaultIsDemandPagedFirstTouchThp) {
  Fixture f;
  auto* r = f.os.alloc_region("arr", 1ULL << 30, osal::AllocPolicy::local());
  EXPECT_TRUE(r->demand_paged());
  EXPECT_TRUE(r->is_sliced());  // first touch deferred
  EXPECT_EQ(r->page_size(), hw::PageSize::k2M);
  EXPECT_NEAR(r->small_page_fraction(), 0.2, 1e-9);
}

TEST(Placement, ExplicitZoneBind) {
  sim::Engine eng(3);
  LinuxOs os(eng, hw::xeon8());
  auto* r = os.alloc_region("arr", 1ULL << 20, osal::AllocPolicy::in_zone(5));
  EXPECT_FALSE(r->is_sliced());
  EXPECT_EQ(r->home_zone(), 5);
}

TEST(Costs, LinuxPersonalityHasNoiseAndPaging) {
  const auto m = hw::phi();
  const auto c = hw::linux_costs(m);
  EXPECT_TRUE(c.demand_paging);
  EXPECT_GT(c.noise_rate_hz, 0.0);
  EXPECT_GT(c.syscall_ns, 0);
  const auto nk = hw::nautilus_costs(m);
  EXPECT_FALSE(nk.demand_paging);
  EXPECT_EQ(nk.noise_rate_hz, 0.0);
  EXPECT_EQ(nk.syscall_ns, 0);
  EXPECT_LT(nk.wake_latency_ns, c.wake_latency_ns);
}

}  // namespace
}  // namespace kop::linuxmodel

// Allocation guard: a warm wait and a warm barrier touch no allocator.
//
// This binary replaces the global operator new / operator delete with
// counting versions (its own, so no other test binary is perturbed).
// Counting is switched on only around the measured window, after a
// warm-up has grown every queue and ring to its working size.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "komp/runtime.hpp"
#include "nautilus/kernel.hpp"
#include "osal/wait_queue.hpp"
#include "pthread_compat/pthreads.hpp"

namespace {

bool g_counting = false;
long g_allocs = 0;

void* counted_alloc(std::size_t n) {
  if (g_counting) ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  if (g_counting) ++g_allocs;
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& nt) noexcept {
  return operator new(n, nt);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(n, al);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t& nt) noexcept {
  return operator new(n, al, nt);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace kop {
namespace {

// Two threads hand a turn back and forth through one queue.  Each round
// covers a notify_one, a notify_all, a plain wait, a wait_until that a
// notify ends, and a wait_until that times out behind a sleeper.
TEST(AllocGuard, WarmWaitQueuePingPongAllocatesNothing) {
  constexpr int kWarmup = 64;
  constexpr int kRounds = 1000;
  sim::Engine engine(42);
  nautilus::NautilusKernel os(engine, hw::phi());
  osal::WaitQueue q(os);
  const sim::Time spin = sim::kMicrosecond;
  int turn = 0;
  int timeouts = 0;
  int notified = 0;
  g_allocs = 0;
  os.spawn_thread(
      "a",
      [&] {
        for (int i = 0; i < kWarmup + kRounds; ++i) {
          if (i == kWarmup) g_counting = true;
          turn = 1;
          q.notify_one();
          while (turn != 0) q.wait(spin);
        }
        g_counting = false;
      },
      0);
  os.spawn_thread(
      "b",
      [&] {
        for (int i = 0; i < kWarmup + kRounds; ++i) {
          // A near deadline: its wake stays queued, stale, until it is
          // due, and far ones would pile up and grow the event queue.
          while (turn != 1) {
            if (q.wait_until(engine.now() + 10 * spin, spin)) ++notified;
          }
          // "a" sleeps on the queue ahead of this wait; nobody notifies.
          if (!q.wait_until(engine.now() + 100, spin)) ++timeouts;
          turn = 0;
          q.notify_all();
        }
      },
      1);
  engine.run();
  EXPECT_EQ(timeouts, kWarmup + kRounds);
  EXPECT_EQ(notified, kWarmup + kRounds - 1);  // round 0 finds the turn set
  EXPECT_EQ(q.waiters(), 0u);
  EXPECT_EQ(g_allocs, 0) << "allocations in " << kRounds << " warm rounds";
}

// 100 explicit barriers of one 16-thread PHI region, under each barrier
// algorithm.
TEST(AllocGuard, WarmTeamBarrierAllocatesNothing) {
  constexpr int kWarmup = 4;
  constexpr int kBarriers = 100;
  for (const auto algo : {komp::RuntimeTuning::BarrierAlgo::kCentralized,
                          komp::RuntimeTuning::BarrierAlgo::kTree}) {
    sim::Engine engine(42);
    nautilus::NautilusKernel nk(engine, hw::phi());
    pthread_compat::Pthreads pt(nk, pthread_compat::nautilus_native_tuning());
    komp::RuntimeTuning tuning;
    tuning.barrier_algo = algo;
    int passed = 0;
    g_allocs = 0;
    nk.spawn_thread(
        "main",
        [&] {
          komp::Runtime rt(pt, tuning);
          rt.parallel(16, [&](komp::TeamThread& tt) {
            for (int i = 0; i < kWarmup; ++i) tt.barrier();
            if (tt.id() == 0) g_counting = true;
            for (int i = 0; i < kBarriers; ++i) tt.barrier();
            if (tt.id() == 0) g_counting = false;
            ++passed;
          });
        },
        0);
    engine.run();
    EXPECT_EQ(passed, 16);
    EXPECT_EQ(g_allocs, 0) << "allocations in " << kBarriers
                           << " warm barriers, algo "
                           << static_cast<int>(algo);
  }
}

}  // namespace
}  // namespace kop

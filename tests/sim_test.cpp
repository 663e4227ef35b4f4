// Unit tests for the discrete-event engine, fibers, RNG and stats.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace kop::sim {
namespace {

TEST(Fiber, RunsToCompletion) {
  int state = 0;
  Fiber f([&] { state = 42; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(state, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> trace;
  Fiber f([&] {
    trace.push_back(1);
    Fiber::yield();
    trace.push_back(3);
  });
  f.resume();
  trace.push_back(2);
  f.resume();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, PropagatesExceptionToResumer) {
  Fiber f([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, NestedFibersRestoreCurrent) {
  Fiber inner([] { EXPECT_NE(Fiber::current(), nullptr); });
  Fiber outer([&] {
    Fiber* self = Fiber::current();
    inner.resume();
    EXPECT_EQ(Fiber::current(), self);
  });
  outer.resume();
  EXPECT_EQ(Fiber::current(), nullptr);
}

// Keeps *p in memory with its address taken, so the frames below are
// real frames (and, under ASan, carry redzones).
void escape(void* p) { asm volatile("" : : "r"(p) : "memory"); }

// Throws from `depth` nested frames, each with a live local array.
[[gnu::noinline]] void throw_from_depth(int depth) {
  char frame[64];
  escape(frame);
  if (depth == 0) throw std::runtime_error("deep");
  throw_from_depth(depth - 1);
  escape(frame);  // live across the call: no tail call
}

// Writes a 16 KiB local array, reaching far below its caller's frame.
[[gnu::noinline]] void scribble_stack() {
  char buf[16 * 1024];
  std::memset(buf, 0x5a, sizeof buf);
  escape(buf);
}

TEST(Fiber, EntryStackIsSixteenByteAligned) {
  std::uintptr_t addr = 1;
  Fiber f([&] {
    alignas(16) char local[16];
    escape(local);
    addr = reinterpret_cast<std::uintptr_t>(local);
  });
  f.resume();
  EXPECT_EQ(addr % 16, 0u);
}

// Both rounding controls travel with the fiber: the x87 control word
// (what fegetround reads) and MXCSR (what SSE division obeys).
TEST(Fiber, FloatingPointControlIsPerFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  volatile double one = 1.0, three = 3.0;
  const double nearest = one / three;
  int fiber_mode = -1;
  double fiber_quotient = 0;
  Fiber f([&] {
    std::fesetround(FE_UPWARD);
    Fiber::yield();
    fiber_mode = std::fegetround();
    fiber_quotient = one / three;
  });
  f.resume();
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(one / three, nearest);
  f.resume();
  EXPECT_EQ(fiber_mode, FE_UPWARD);
  EXPECT_GT(fiber_quotient, nearest);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(Fiber, DeepExceptionAfterManyYieldsReachesResumer) {
  int yields = 0;
  Fiber f([&] {
    for (; yields < 1000; ++yields) Fiber::yield();
    throw_from_depth(64);
  });
  for (int i = 0; i < 1000; ++i) f.resume();
  ASSERT_FALSE(f.finished());
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(yields, 1000);
}

// A throw unwinds frames without running their epilogues, so under ASan
// their redzones stay poisoned unless the runtime knows the fiber's
// stack bounds.  A destructor running mid-unwind, and then the next
// fiber to get the pooled stack, both write over that region.
TEST(Fiber, StackIsCleanAfterAnExceptionUnwinds) {
  struct ScribbleOnUnwind {
    ~ScribbleOnUnwind() { scribble_stack(); }
  };
  {
    Fiber thrower([] {
      ScribbleOnUnwind guard;
      throw_from_depth(16);
    });
    EXPECT_THROW(thrower.resume(), std::runtime_error);
    EXPECT_TRUE(thrower.finished());
  }  // the finished fiber's stack goes back to this thread's pool
  bool ran = false;
  Fiber reuser([&] {
    scribble_stack();
    ran = true;
  });
  reuser.resume();
  EXPECT_TRUE(ran);
}

TEST(Engine, SleepAdvancesVirtualTime) {
  Engine eng;
  Time seen = -1;
  auto* t = eng.spawn("t", [&] {
    eng.sleep_for(1500);
    seen = eng.now();
  });
  eng.wake(t);
  eng.run();
  EXPECT_EQ(seen, 1500);
}

TEST(Engine, EventsFireInTimeThenFifoOrder) {
  Engine eng;
  std::vector<int> order;
  eng.post_at(100, [&] { order.push_back(2); });
  eng.post_at(50, [&] { order.push_back(1); });
  eng.post_at(100, [&] { order.push_back(3); });  // same time: FIFO
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, BlockAndWake) {
  Engine eng;
  bool done = false;
  auto* sleeper = eng.spawn("sleeper", [&] {
    eng.block();
    done = true;
  });
  eng.wake(sleeper);  // start it
  eng.post_at(700, [&] { eng.wake(sleeper); });
  eng.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(eng.now(), 700);
}

TEST(Engine, StaleWakeTokenIsIgnored) {
  Engine eng;
  int wakeups = 0;
  auto* t = eng.spawn("t", [&] {
    // First block: woken by the explicit wake at t=10, while a stale
    // timeout for the same block sits at t=100.
    WakeToken tok = eng.arm_wake_token();
    eng.wake_token_at(tok, 100);
    eng.block();
    ++wakeups;
    // Second block: only the wake at t=200 should resume us; the
    // t=100 token from the first block must not.
    eng.block();
    ++wakeups;
  });
  eng.wake(t);
  eng.post_at(10, [&] { eng.wake(t); });
  eng.post_at(200, [&] { eng.wake(t); });
  eng.run();
  EXPECT_EQ(wakeups, 2);
  EXPECT_EQ(eng.now(), 200);
}

TEST(Engine, DeadlockDetectionNamesThread) {
  Engine eng;
  auto* t = eng.spawn("stuck-thread", [&] { eng.block(); });
  eng.wake(t);
  try {
    eng.run();
    FAIL() << "expected SimDeadlock";
  } catch (const SimDeadlock& e) {
    EXPECT_NE(std::string(e.what()).find("stuck-thread"), std::string::npos);
  }
}

TEST(Engine, ManyThreadsInterleaveDeterministically) {
  auto run_once = [] {
    Engine eng(123);
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
      auto* t = eng.spawn("t" + std::to_string(i), [&, i] {
        eng.sleep_for(100 * (10 - i));
        order.push_back(i);
      });
      eng.wake(t);
    }
    eng.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
  auto order = run_once();
  EXPECT_EQ(order.front(), 9);  // shortest sleep finishes first
  EXPECT_EQ(order.back(), 0);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng r(2);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, LognormalMeanCv) {
  Rng r(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.lognormal_mean_cv(100.0, 0.5);
  EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(Stats, BasicMoments) {
  Stats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 2.5);
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({1.0, 4.0}), 2.0);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, TrimmedMeanRejectsOutlier) {
  Stats s;
  for (int i = 0; i < 50; ++i) s.add(10.0 + 0.01 * i);
  s.add(10000.0);
  EXPECT_LT(s.trimmed_mean(3.0), 12.0);
}

}  // namespace
}  // namespace kop::sim

// Appended coverage: engine run-loop statistics.
namespace kop::sim {
namespace {

TEST(Engine, StatsCountEventsThreadsAndStaleWakes) {
  Engine eng;
  auto* t = eng.spawn("t", [&] {
    WakeToken tok = eng.arm_wake_token();
    eng.wake_token_at(tok, 100);  // will be made stale by the wake at 10
    eng.block();
    // Stay alive past t=100 so the stale token fires against a live
    // thread (wakes for finished threads are dropped earlier).
    eng.sleep_for(200);
  });
  eng.wake(t);
  eng.post_at(10, [&] { eng.wake(t); });
  eng.run();
  const auto& s = eng.stats();
  EXPECT_EQ(s.threads_spawned, 1u);
  EXPECT_EQ(s.stale_wakes, 1u);       // the t=100 token
  EXPECT_GE(s.events_dispatched, 4u); // start, post, wake, sleep-wake, stale
  EXPECT_GE(s.peak_queue_depth, 1u);
}

}  // namespace
}  // namespace kop::sim

// Run-ahead: a sleep_for() whose wake is strictly earlier than every
// queued event is dispatched in place.  This program walks every branch
// of that decision; its digest and stats were recorded when every wake
// still went through the queue, under each policy.
namespace kop::sim {
namespace {

struct RunAheadOutcome {
  Engine::Stats stats;
  Time end = 0;
};

RunAheadOutcome run_ahead_program(SchedPolicy policy) {
  Engine eng(5, {policy, 11});
  SimThread* solo = nullptr;
  std::vector<SimThread*> lockstep;
  for (int i = 0; i < 2; ++i) {
    lockstep.push_back(eng.spawn("lockstep" + std::to_string(i), [&eng] {
      // Equal periods: every wake ties or trails the other's.
      for (int k = 0; k < 48; ++k) eng.sleep_for(25);
    }));
  }
  solo = eng.spawn("solo", [&] {
    // A lone sleeper: nothing is queued at all.
    for (int i = 0; i < 4; ++i) eng.sleep_for(10);
    for (SimThread* t : lockstep) eng.wake_at(t, 1000);
    eng.post_in(100, [&] { eng.wake(solo); });  // a callback wakes a block()
    eng.post_in(200, [] {});
    eng.post_in(300, [] {});
    // Strictly before the top: the in-place dispatch sets the peak depth
    // (nothing queued later gets this deep).
    eng.sleep_for(60);
    eng.yield_now();  // nothing else at this instant: runs ahead too
    eng.block();
    eng.sleep_for(100);  // ties the t=240 timer: takes the queue
    // A stale token: the sleep leaves the block() the token targets.
    const WakeToken tok = eng.arm_wake_token();
    eng.wake_token_at(tok, eng.now() + 50);
    eng.sleep_for(20);
    eng.sleep_for(800);  // past the lock-step wakes at t=1000
    // Interleave with the lock-step pair: some sleeps run ahead of
    // their next wake, others queue behind it.
    for (int i = 0; i < 16; ++i) eng.sleep_for(7);
  });
  eng.wake(solo);
  eng.run();
  return {eng.stats(), eng.now()};
}

TEST(Engine, RunAheadKeepsOrderAndStats) {
  struct Expected {
    SchedPolicy policy;
    std::uint64_t digest;
    std::uint64_t events;
    std::size_t peak;
    std::uint64_t stale;
    Time end;
    std::uint64_t run_ahead;  // the only field the queue-only engine lacked
  };
  const Expected cases[] = {
      {SchedPolicy::kFifo, 0xb1fdb2f6f4f3b53cULL, 129, 6, 1, 2200, 19},
      {SchedPolicy::kRandom, 0x36c765a810f4cc1aULL, 129, 6, 1, 2200, 18},
      {SchedPolicy::kPct, 0x12054148757ef334ULL, 129, 6, 1, 2200, 19},
  };
  for (const Expected& want : cases) {
    SCOPED_TRACE(sched_policy_name(want.policy));
    const RunAheadOutcome got = run_ahead_program(want.policy);
    EXPECT_EQ(got.stats.dispatch_digest, want.digest);
    EXPECT_EQ(got.stats.events_dispatched, want.events);
    EXPECT_EQ(got.stats.peak_queue_depth, want.peak);
    EXPECT_EQ(got.stats.stale_wakes, want.stale);
    EXPECT_EQ(got.end, want.end);
    EXPECT_EQ(got.stats.run_ahead, want.run_ahead);
  }
}

}  // namespace
}  // namespace kop::sim

// Dispatch-order pinning for the engine's event queue.
//
// The golden arrays were generated from the engine's original
// std::priority_queue of Events (the scripted scenario mixes
// same-instant bursts, out-of-order posts, yield ping-pong, sleeps,
// and dispatch-time posts).  The queue must pop the least
// (at, key, seq) triple and nothing else, so any queue change that
// reorders dispatch under any SchedPolicy breaks these -- and with
// them the byte-identity of every figure in the evaluation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/ring_deque.hpp"
#include "sim/rng.hpp"

namespace kop::sim {
namespace {

// Generated from the original queue by the scenario below (see the file
// comment).
constexpr int kGoldenFifo[] = {0, 1, 2, 3, 10, 11, 100, 110, 120,
                               101, 111, 121, 102, 112, 122, 20, 21,
                               200, 201, 202, 30, 31, 32};
constexpr int kGoldenRandom7[] = {1, 2, 3, 0, 10, 11, 120, 100, 110,
                                  111, 112, 101, 102, 121, 122, 20, 21,
                                  200, 201, 202, 30, 32, 31};
constexpr int kGoldenRandom21[] = {1, 2, 0, 3, 11, 10, 110, 120, 121,
                                   100, 101, 102, 122, 111, 112, 200, 20,
                                   21, 201, 202, 30, 31, 32};
constexpr int kGoldenPct7[] = {1, 2, 3, 0, 10, 11, 110, 111, 112,
                               100, 101, 102, 120, 121, 122, 20, 21,
                               200, 201, 202, 30, 31, 32};
constexpr int kGoldenPct13[] = {3, 0, 1, 2, 10, 11, 110, 111, 112,
                                120, 121, 122, 100, 101, 102, 20, 21,
                                200, 201, 202, 30, 31, 32};

std::vector<int> scripted_order(SchedPolicy policy, std::uint64_t seed) {
  Engine eng(42, SchedConfig{policy, seed});
  std::vector<int> order;
  // Same-instant burst at t=0.
  for (int i = 0; i < 4; ++i)
    eng.post_at(0, [&order, i] { order.push_back(i); });
  // Two instants posted out of order.
  eng.post_at(200, [&order] { order.push_back(20); });
  eng.post_at(100, [&order] { order.push_back(10); });
  eng.post_at(200, [&order] { order.push_back(21); });
  eng.post_at(100, [&order] { order.push_back(11); });
  // Threads that interleave via yield at one instant.
  for (int t = 0; t < 3; ++t) {
    auto* th = eng.spawn("t" + std::to_string(t), [&eng, &order, t] {
      for (int k = 0; k < 3; ++k) {
        order.push_back(100 + 10 * t + k);
        eng.yield_now();
      }
      eng.sleep_for(50 + t);
      order.push_back(200 + t);
    });
    eng.wake_at(th, 150);
  }
  // A callback that posts more same-instant work from inside dispatch.
  eng.post_at(300, [&eng, &order] {
    order.push_back(30);
    eng.post_at(300, [&order] { order.push_back(31); });
    eng.post_at(300, [&order] { order.push_back(32); });
  });
  eng.run();
  return order;
}

template <std::size_t N>
std::vector<int> as_vec(const int (&a)[N]) {
  return std::vector<int>(a, a + N);
}

TEST(QueueOrder, GoldenFifo) {
  EXPECT_EQ(scripted_order(SchedPolicy::kFifo, 0), as_vec(kGoldenFifo));
}

TEST(QueueOrder, GoldenRandom) {
  EXPECT_EQ(scripted_order(SchedPolicy::kRandom, 7), as_vec(kGoldenRandom7));
  EXPECT_EQ(scripted_order(SchedPolicy::kRandom, 21), as_vec(kGoldenRandom21));
}

TEST(QueueOrder, GoldenPct) {
  EXPECT_EQ(scripted_order(SchedPolicy::kPct, 7), as_vec(kGoldenPct7));
  EXPECT_EQ(scripted_order(SchedPolicy::kPct, 13), as_vec(kGoldenPct13));
}

// Property: same-instant callbacks under FIFO dispatch in posting order,
// regardless of how many earlier/later instants surround them.
TEST(QueueOrder, FifoSameInstantIsPostingOrder) {
  Engine eng;
  std::vector<int> order;
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    // Same tag interleaved across three instants; FIFO must keep the
    // per-instant sequences in posting order.
    const Time at = static_cast<Time>(100 * (rng.next_u64() % 3));
    eng.post_at(at, [&order, i] { order.push_back(i); });
  }
  eng.run();
  // Events at one instant must appear in ascending posting index.
  // (Across instants order follows time, so a stable per-instant sort
  // of the observed order must reproduce 0..199 exactly when grouped.)
  std::vector<int> seen_last(3, -1);
  // Replay which instant each index went to.
  Rng rng2(99);
  std::vector<int> instant_of(200);
  for (int i = 0; i < 200; ++i)
    instant_of[i] = static_cast<int>(rng2.next_u64() % 3);
  for (int idx : order) {
    EXPECT_LT(seen_last[instant_of[idx]], idx)
        << "same-instant FIFO order violated at index " << idx;
    seen_last[instant_of[idx]] = idx;
  }
}

// Model check: EventQueue against a reference min-heap on (at, key,
// seq) under adversarial interleavings of pushes, pops and fused
// push_pop_wake() calls (checked against the model's push then pop),
// with same-instant repeats, near posts, posts up to 50 ms out and rare
// posts anywhere up to the largest Time (the top bit of at, which the
// comparator flips, and the time of a vacant leaf), for all-zero keys
// (fifo), random 64-bit keys (random/pct) and keys from {0,1,2,3},
// whose ties leave seq to decide among equal (at, key).  Each pass
// starts from an empty queue and grows it through several doublings.
// Plain wakes (stored inline in the tree) and callbacks (stored in the
// slab) are mixed, so both storage paths keep one order and their
// payloads.
TEST(QueueOrder, MatchesReferenceHeapModel) {
  struct Ref {
    Time at;
    std::uint64_t key;
    std::uint64_t seq;
    bool wake;
  };
  auto ref_later = [](const Ref& a, const Ref& b) {
    if (a.at != b.at) return a.at > b.at;
    if (a.key != b.key) return a.key > b.key;
    return a.seq > b.seq;
  };
  // Each entry's generation tags it, so a payload that came back with
  // the wrong key would show.
  auto tag = [](std::uint64_t seq) { return seq * 3 + 1; };
  Engine eng;
  SimThread* const target = eng.spawn("target", [] {});
  enum class Keys { kZero, kWide, kNarrow };
  for (const Keys keys : {Keys::kZero, Keys::kWide, Keys::kNarrow}) {
    EventQueue q;
    std::priority_queue<Ref, std::vector<Ref>, decltype(ref_later)> model(
        ref_later);
    const int pass = static_cast<int>(keys);
    Rng rng(std::array<std::uint64_t, 3>{4321, 1234, 9876}[pass]);
    Rng kind_rng(std::array<std::uint64_t, 3>{66, 55, 77}[pass]);
    std::uint64_t seq = 0;
    Time now = 0;
    std::size_t peak = 0;
    // A new entry's key: same-instant repeats, near posts, far posts,
    // and rare posts anywhere up to the largest Time.  Offsets saturate
    // there.
    auto draw = [&](bool wake) {
      const auto room = static_cast<std::uint64_t>(
          std::numeric_limits<Time>::max() - now);
      const std::uint64_t r = rng.next_u64() % 100;
      std::uint64_t offset = 0;
      if (r < 30) {
        offset = 0;
      } else if (r < 89) {
        offset = rng.next_u64() % 100000;
      } else if (r < 98) {
        offset = rng.next_u64() % 50'000'000;
      } else {
        offset = rng.next_u64() % (room + 1);
      }
      const Time at = now + static_cast<Time>(std::min(offset, room));
      std::uint64_t key = 0;
      if (keys == Keys::kWide) key = rng.next_u64();
      if (keys == Keys::kNarrow) key = rng.next_u64() % 4;
      return Ref{at, key, seq++, wake};
    };
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t op = rng.next_u64() % 100;
      if (model.empty() || op < 55) {
        const Ref want = draw(kind_rng.next_u64() % 2 == 0);
        if (want.wake) {
          q.push_wake({want.at, want.key, want.seq, target, tag(want.seq)});
        } else {
          Event ev;
          ev.at = want.at;
          ev.seq = want.seq;
          ev.key = want.key;
          ev.generation = tag(want.seq);
          ev.fn = [] {};
          q.push(std::move(ev));
        }
        model.push(want);
      } else if (op < 70 && model.top().wake) {
        ASSERT_TRUE(q.wake_next()) << "step " << step;
        const Ref pushed = draw(true);
        const EventQueue::Wake got = q.push_pop_wake(
            {pushed.at, pushed.key, pushed.seq, target, tag(pushed.seq)});
        model.push(pushed);
        const Ref want = model.top();
        model.pop();
        ASSERT_EQ(got.at, want.at) << "step " << step;
        ASSERT_EQ(got.key, want.key) << "step " << step;
        ASSERT_EQ(got.seq, want.seq) << "step " << step;
        ASSERT_EQ(got.thread, target) << "step " << step;
        ASSERT_EQ(got.generation, tag(want.seq)) << "step " << step;
        now = want.at;
      } else {
        ASSERT_EQ(q.next_time(), model.top().at) << "step " << step;
        const Ref want = model.top();
        model.pop();
        ASSERT_EQ(q.wake_next(), want.wake) << "step " << step;
        if (want.wake) {
          const EventQueue::Wake got = q.pop_wake();
          ASSERT_EQ(got.at, want.at) << "step " << step;
          ASSERT_EQ(got.key, want.key) << "step " << step;
          ASSERT_EQ(got.seq, want.seq) << "step " << step;
          ASSERT_EQ(got.thread, target) << "step " << step;
          ASSERT_EQ(got.generation, tag(want.seq)) << "step " << step;
        } else {
          const Event got = q.pop();
          ASSERT_EQ(got.at, want.at) << "step " << step;
          ASSERT_EQ(got.key, want.key) << "step " << step;
          ASSERT_EQ(got.seq, want.seq) << "step " << step;
          ASSERT_TRUE(got.fn) << "step " << step;
          ASSERT_EQ(got.generation, tag(want.seq)) << "step " << step;
        }
        now = want.at;  // engine invariant: pushes never precede now
      }
      ASSERT_EQ(q.size(), model.size());
      peak = std::max(peak, model.size());
    }
    EXPECT_GT(peak, 512u) << "the pass should grow the tree past 8 leaves "
                             "through several doublings";
    // Drain with pop() alone: an inline wake comes back as an Event.
    while (!model.empty()) {
      const Event got = q.pop();
      const Ref want = model.top();
      model.pop();
      ASSERT_EQ(got.at, want.at);
      ASSERT_EQ(got.seq, want.seq);
      ASSERT_EQ(got.thread, want.wake ? target : nullptr);
      ASSERT_EQ(static_cast<bool>(got.fn), !want.wake);
      ASSERT_EQ(got.generation, tag(want.seq));
    }
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.wake_next());
  }
  // A real entry at the largest Time with the largest key still sorts
  // before a vacant leaf: seq decides.
  EventQueue q;
  const Time last = std::numeric_limits<Time>::max();
  const std::uint64_t top_key = std::numeric_limits<std::uint64_t>::max();
  q.push_wake({last, top_key, 7, target, tag(7)});
  ASSERT_TRUE(q.wake_next());
  EXPECT_EQ(q.next_time(), last);
  const EventQueue::Wake got =
      q.push_pop_wake({last, top_key, 8, target, tag(8)});
  EXPECT_EQ(got.seq, 7u);
  EXPECT_EQ(q.pop_wake().seq, 8u);
  EXPECT_TRUE(q.empty());
}

// A warm queue cycling through a fixed working set must stop
// allocating, whether the set is packed into 4 us or spread over 50 ms.
TEST(QueueOrder, WarmQueueStopsAllocating) {
  for (const std::uint64_t horizon_ns : {4096ull, 50'000'000ull}) {
    EventQueue q;
    Rng rng(5);
    std::uint64_t seq = 0;
    Time now = 0;
    auto cycle = [&] {
      for (int i = 0; i < 2000; ++i) {
        Event ev;
        ev.at = now + static_cast<Time>(rng.next_u64() % horizon_ns);
        ev.seq = seq++;
        q.push(ev);
      }
      while (!q.empty()) now = q.pop().at;
    };
    for (int warm = 0; warm < 12; ++warm) cycle();
    const std::uint64_t allocs_before = q.allocs();
    for (int rep = 0; rep < 5; ++rep) cycle();
    EXPECT_EQ(q.allocs(), allocs_before)
        << "warm queue allocated in steady state (horizon " << horizon_ns
        << " ns)";
  }
}

TEST(RingDeque, FifoAndLifoAcrossGrowth) {
  RingDeque<int> d;
  // Interleave push/pop so head wraps, then force growth mid-wrap.
  for (int i = 0; i < 10; ++i) d.push_back(i);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(d.front(), i);
    d.pop_front();
  }
  for (int i = 10; i < 200; ++i) d.push_back(i);  // grows, head != 0
  EXPECT_EQ(d.size(), 193u);
  for (int i = 7; i < 100; ++i) {
    EXPECT_EQ(d.front(), i);
    d.pop_front();
  }
  for (int i = 199; i >= 150; --i) {
    EXPECT_EQ(d.back(), i);
    d.pop_back();
  }
  EXPECT_EQ(d.size(), 50u);
  d.clear();
  EXPECT_TRUE(d.empty());
}

}  // namespace
}  // namespace kop::sim

// The engine's pending events: one binary min-heap on (at, key, seq).
//
// seq is unique per engine, so (at, key, seq) is a strict total order:
// the queue's only job is to pop the least triple, and any correct
// priority queue dispatches the identical sequence under every
// SchedPolicy (fifo leaves key at 0; random and pct draw it).
//
// A heap entry holds the sort key and either a plain wake inline (the
// thread and the generation it targets) or the slab slot of an Event.
// Plain wakes -- most of the traffic -- never touch the slab.  The
// Event payloads of callbacks and race-checked wakes (a std::function
// and a shared_ptr) sit in a slab whose vacated slots are recycled
// through a free list, so a payload is moved exactly twice, into the
// slab on push and out of it on pop, however far its key sifts.  All
// three vectors keep their capacity, so a warm queue allocates nothing;
// allocs() counts capacity growths so benchmarks can assert that.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace kop::sim {

class SimThread;

/// A pending wake or callback.  Exactly one of {thread, fn} is set.
struct Event {
  Time at = 0;
  std::uint64_t seq = 0;
  /// Policy tie-break key among events at the same time (0 = FIFO).
  std::uint64_t key = 0;
  SimThread* thread = nullptr;
  std::uint64_t generation = 0;
  std::function<void()> fn;
  /// Vector-clock snapshot of the posting context (racecheck only).
  std::shared_ptr<const std::vector<std::uint64_t>> hb;
};

class EventQueue {
 public:
  /// A plain wake: no callback and no vector clock, so it lives inline
  /// in its heap entry.
  struct Wake {
    Time at;
    std::uint64_t key;
    std::uint64_t seq;
    SimThread* thread;  // non-null
    std::uint64_t generation;
  };

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Cumulative heap allocations (vector capacity growths); flat
  /// between two points in time == storage fully recycled.
  std::uint64_t allocs() const { return allocs_; }

  /// Queue an event; its payload goes to the slab.
  void push(Event ev);

  /// Queue a plain wake inline.
  void push_wake(const Wake& w);

  /// Whether the earliest entry is an inline wake (false when empty).
  bool wake_next() const {
    return !heap_.empty() && heap_.front().thread != nullptr;
  }

  /// Remove and return the earliest entry, which must be an inline wake
  /// (wake_next()).
  Wake pop_wake();

  /// Remove and return the earliest event in (at, key, seq) order; an
  /// inline wake comes back as an Event with only its wake fields set.
  /// Queue must be nonempty.
  Event pop();

  /// Earliest pending timestamp.  Queue must be nonempty.
  Time next_time() const { return heap_.front().at; }

 private:
  struct Entry {
    Time at;
    std::uint64_t key;
    std::uint64_t seq;
    SimThread* thread;   // an inline wake's target; null: a slab payload
    std::uint64_t data;  // the wake's generation, or the payload's slot
  };

  template <typename V, typename X>
  void grow_push(V& v, X&& x) {
    if (v.size() == v.capacity()) ++allocs_;
    v.push_back(std::forward<X>(x));
  }

  Entry take_top();

  std::vector<Entry> heap_;
  std::vector<Event> slab_;
  std::vector<std::uint32_t> free_;  // vacated slab slots
  std::uint64_t allocs_ = 0;
};

}  // namespace kop::sim

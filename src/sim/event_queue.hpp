// The engine's pending events: one winner tree on (at, key, seq).
//
// seq is unique per engine, so (at, key, seq) is a strict total order:
// the queue's only job is to pop the least triple, and any correct
// priority queue dispatches the identical sequence under every
// SchedPolicy (fifo leaves key at 0; random and pct draw it).
//
// The tree is the selection tree of replacement selection (Knuth, TAOCP
// Vol. 3, 5.4.1).  It has K leaves, K a power of two, each holding an
// entry or, when vacant, a sentinel that sorts after every real entry
// (the largest Time, and key and seq both UINT64_MAX -- no engine draws
// that seq).  Internal node p holds the index of the leaf that wins p's
// subtree, so the root names the least entry.  A push writes a vacant
// leaf and a pop writes the sentinel over the root's leaf; either way
// one replay from that leaf to the root restores the tree: at each
// level keep the lesser of the candidate and the winner of the sibling
// subtree.  The nodes a replay reads are fixed by the leaf index, so its
// loads can all issue at once and only the compare-and-select chain is
// serial -- a heap's sift instead waits on each comparison for its next
// load.  It must be a winner tree, not a loser tree: a loser tree can
// replay only the current winner's leaf, and a push into any other
// leaf needs the sibling subtree's winner, which a loser tree does not
// store.  Vacant leaves sit on a LIFO stack; when none is left K
// doubles and the tree is rebuilt in O(K).  It never shrinks.
//
// push_pop_wake() is a sleep's push and the pop that follows it in one
// replay: when the new wake does not sort first, it takes the leaf of
// the entry it displaces.
//
// An entry holds the sort key and either a plain wake inline (the
// thread and the generation it targets) or the slab slot of an Event.
// Plain wakes -- most of the traffic -- never touch the slab.  The
// Event payloads of callbacks and race-checked wakes (a std::function
// and a shared_ptr) sit in a slab whose vacated slots are recycled
// through a free list, so a payload is moved exactly twice, into the
// slab on push and out of it on pop.  Every vector keeps its capacity,
// so a warm queue allocates nothing; allocs() counts capacity growths
// so benchmarks can assert that.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
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
  /// in its leaf.
  struct Wake {
    Time at;
    std::uint64_t key;
    std::uint64_t seq;
    SimThread* thread;  // non-null
    std::uint64_t generation;
  };

  EventQueue();

  bool empty() const { return vacant_.size() == leaves_.size(); }
  std::size_t size() const { return leaves_.size() - vacant_.size(); }

  /// Cumulative heap allocations (vector capacity growths); flat
  /// between two points in time == storage fully recycled.
  std::uint64_t allocs() const { return allocs_; }

  /// Queue an event; its payload goes to the slab.
  void push(Event ev);

  /// Queue a plain wake inline.
  void push_wake(const Wake& w);

  /// Whether the earliest entry is an inline wake (false when empty:
  /// a vacant leaf holds no thread).
  bool wake_next() const { return top().thread != nullptr; }

  /// Remove and return the earliest entry, which must be an inline wake
  /// (wake_next()).
  Wake pop_wake();

  /// push_wake(w) then pop_wake() in one replay: `w` itself when it
  /// sorts before every queued entry, which leaves the queue untouched;
  /// otherwise the earliest entry, whose leaf `w` takes.  The earliest
  /// entry must be an inline wake (wake_next()).
  Wake push_pop_wake(const Wake& w);

  /// Remove and return the earliest event in (at, key, seq) order; an
  /// inline wake comes back as an Event with only its wake fields set.
  /// Queue must be nonempty.
  Event pop();

  /// Earliest pending timestamp.  Queue must be nonempty.
  Time next_time() const { return top().at; }

 private:
  struct Entry {
    Time at;
    std::uint64_t key;
    std::uint64_t seq;
    SimThread* thread;   // an inline wake's target; null: a slab payload
    std::uint64_t data;  // the wake's generation, or the payload's slot
  };

  /// What a vacant leaf holds: sorts after every real entry.
  static constexpr Entry kVacant{std::numeric_limits<Time>::max(),
                                 std::numeric_limits<std::uint64_t>::max(),
                                 std::numeric_limits<std::uint64_t>::max(),
                                 nullptr, 0};

  template <typename V, typename X>
  void grow_push(V& v, X&& x) {
    if (v.size() == v.capacity()) ++allocs_;
    v.push_back(std::forward<X>(x));
  }

  const Entry& top() const { return leaves_[nodes_[1]]; }
  /// Double K (or build the first tree) and rebuild every node.
  void grow();
  /// Write `e` into a vacant leaf and replay.
  void insert(const Entry& e);
  /// Restore the winners on `leaf`'s path after `e` was written there.
  void replay(std::uint32_t leaf, const Entry& e);
  Entry take_top();

  std::vector<Entry> leaves_;
  /// nodes_[p] for 1 <= p < K: the winning leaf of node p's subtree,
  /// whose children are 2p and 2p + 1; nodes_[K + i] == i, so a leaf's
  /// sibling is looked up like any other node's.
  std::vector<std::uint32_t> nodes_;
  std::vector<std::uint32_t> vacant_;  // LIFO stack of vacant leaves
  std::vector<Event> slab_;
  std::vector<std::uint32_t> free_;  // vacated slab slots
  std::uint64_t allocs_ = 0;
};

}  // namespace kop::sim

#include "sim/event_queue.hpp"

#include <cstdint>

namespace kop::sim {

namespace {

// The sort key (at, key, seq) is read as one 192-bit unsigned number --
// seq the low word, at the high one with its sign bit flipped so the
// signed time compares as unsigned -- and two keys compare by one
// borrow chain, sub/sbb/sbb, with no branch: equal times are common, so
// which word decides a comparison is hard to predict.  The chain is
// asm because GCC 12 compiles _subborrow_u64 with a store of each
// difference and a setb/add between steps to rebuild the borrow, and
// compiles a ternary select of the lesser key into a branch.
constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

std::uint64_t high_word(Time at) {
  return static_cast<std::uint64_t>(at) ^ kSignBit;
}

// Whether `a` sorts before `b`.
constexpr auto before = [](const auto& a, const auto& b) -> bool {
  std::uint64_t s = a.seq, k = a.key, t = high_word(a.at);
  bool borrow;
  asm("sub %[bs], %[s]\n\t"
      "sbb %[bk], %[k]\n\t"
      "sbb %[bt], %[t]"
      : [s] "+&r"(s), [k] "+&r"(k), [t] "+&r"(t), "=@ccb"(borrow)
      : [bs] "rm"(b.seq), [bk] "rm"(b.key), [bt] "r"(high_word(b.at)));
  return borrow;
};

}  // namespace

EventQueue::EventQueue() { grow(); }

void EventQueue::grow() {
  constexpr std::size_t kFirstLeaves = 8;
  const std::size_t old_k = leaves_.size();
  const std::size_t k = old_k == 0 ? kFirstLeaves : 2 * old_k;
  // Each of the three vectors outgrows its capacity (exactly the old K,
  // or twice it for nodes_).
  allocs_ += 3;
  leaves_.resize(k, kVacant);
  nodes_.assign(2 * k, 0);
  vacant_.reserve(k);
  // The stack is empty here; the lowest new leaf ends on top.
  for (std::size_t leaf = k; leaf-- > old_k;)
    vacant_.push_back(static_cast<std::uint32_t>(leaf));
  for (std::size_t leaf = 0; leaf < k; ++leaf)
    nodes_[k + leaf] = static_cast<std::uint32_t>(leaf);
  for (std::size_t p = k - 1; p > 0; --p) {
    const std::uint32_t l = nodes_[2 * p];
    const std::uint32_t r = nodes_[2 * p + 1];
    nodes_[p] = before(leaves_[r], leaves_[l]) ? r : l;
  }
}

void EventQueue::replay(std::uint32_t leaf, const Entry& e) {
  const Entry* const lv = leaves_.data();
  std::uint32_t* const node = nodes_.data();
  // The candidate: the lesser key seen so far on the way up and its leaf.
  std::uint64_t s = e.seq, k = e.key, t = high_word(e.at);
  std::uint32_t i = leaf;
  for (std::size_t c = leaves_.size() + leaf; c > 1; c >>= 1) {
    // The sibling subtree's winner b: the borrow of b - candidate says
    // b is less, and then four cmovc take it.  No branch, and the loads
    // of every level depend on the leaf index alone.
    const std::uint32_t bi = node[c ^ 1];
    const Entry& b = lv[bi];
    const std::uint64_t bt = high_word(b.at);
    std::uint64_t dk = b.key, dt = bt;
    asm("cmp %[s], %[bs]\n\t"
        "sbb %[k], %[dk]\n\t"
        "sbb %[t], %[dt]\n\t"
        "cmovc %[bs], %[s]\n\t"
        "cmovc %[bk], %[k]\n\t"
        "cmovc %[bt], %[t]\n\t"
        "cmovc %[bi], %[i]"
        : [s] "+&r"(s), [k] "+&r"(k), [t] "+&r"(t), [i] "+&r"(i),
          [dk] "+&r"(dk), [dt] "+&r"(dt)
        : [bs] "r"(b.seq), [bk] "rm"(b.key), [bt] "r"(bt), [bi] "rm"(bi)
        : "cc");
    node[c >> 1] = i;
  }
}

void EventQueue::insert(const Entry& e) {
  if (vacant_.empty()) grow();
  const std::uint32_t leaf = vacant_.back();
  vacant_.pop_back();
  leaves_[leaf] = e;
  replay(leaf, e);
}

void EventQueue::push(Event ev) {
  Entry e{ev.at, ev.key, ev.seq, nullptr, 0};
  if (free_.empty()) {
    e.data = slab_.size();
    grow_push(slab_, std::move(ev));
  } else {
    e.data = free_.back();
    free_.pop_back();
    slab_[e.data] = std::move(ev);
  }
  insert(e);
}

void EventQueue::push_wake(const Wake& w) {
  insert(Entry{w.at, w.key, w.seq, w.thread, w.generation});
}

EventQueue::Entry EventQueue::take_top() {
  const std::uint32_t leaf = nodes_[1];
  const Entry top = leaves_[leaf];
  leaves_[leaf] = kVacant;
  vacant_.push_back(leaf);  // within the capacity grow() reserved
  replay(leaf, kVacant);
  return top;
}

EventQueue::Wake EventQueue::pop_wake() {
  const Entry e = take_top();
  return Wake{e.at, e.key, e.seq, e.thread, e.data};
}

EventQueue::Wake EventQueue::push_pop_wake(const Wake& w) {
  const std::uint32_t leaf = nodes_[1];
  Entry& top = leaves_[leaf];
  if (before(w, top)) return w;
  const Wake out{top.at, top.key, top.seq, top.thread, top.data};
  top = Entry{w.at, w.key, w.seq, w.thread, w.generation};
  replay(leaf, top);
  return out;
}

Event EventQueue::pop() {
  const Entry e = take_top();
  if (e.thread != nullptr) {
    Event ev;
    ev.at = e.at;
    ev.seq = e.seq;
    ev.key = e.key;
    ev.thread = e.thread;
    ev.generation = e.data;
    return ev;
  }
  const auto slot = static_cast<std::uint32_t>(e.data);
  grow_push(free_, slot);
  return std::move(slab_[slot]);
}

}  // namespace kop::sim

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
// difference and a setb/add between steps to rebuild the borrow, which
// made the sifts slower than std::pop_heap's branches.
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

// The index of the lesser of the siblings h[left] and h[left + 1]: the
// borrow of h[left + 1] - h[left] added to `left`.
constexpr auto lesser_child = [](const auto* h,
                                 std::size_t left) -> std::size_t {
  const auto& r = h[left + 1];
  const auto& l = h[left];
  std::uint64_t s = r.seq, k = r.key, t = high_word(r.at);
  asm("sub %[ls], %[s]\n\t"
      "sbb %[lk], %[k]\n\t"
      "sbb %[lt], %[t]\n\t"
      "adc $0, %[i]"
      : [s] "+&r"(s), [k] "+&r"(k), [t] "+&r"(t), [i] "+r"(left)
      : [ls] "rm"(l.seq), [lk] "rm"(l.key), [lt] "r"(high_word(l.at)));
  return left;
};

}  // namespace

void EventQueue::sift_up(std::size_t hole, Entry e) {
  Entry* const h = heap_.data();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!before(e, h[parent])) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = e;
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
  grow_push(heap_, e);
  sift_up(heap_.size() - 1, e);
}

void EventQueue::push_wake(const Wake& w) {
  const Entry e{w.at, w.key, w.seq, w.thread, w.generation};
  grow_push(heap_, e);
  sift_up(heap_.size() - 1, e);
}

EventQueue::Entry EventQueue::take_top() {
  const Entry top = heap_.front();
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  // Floyd's pop: walk the hole from the root down to a leaf, taking the
  // lesser child at each level by adding the comparison's borrow to the
  // index, then sift the old last entry up from there.  The last entry
  // belongs near the bottom, so the sift-up is short.
  Entry* const h = heap_.data();
  std::size_t hole = 0;
  std::size_t child = 1;
  while (child + 1 < n) {
    child = lesser_child(h, child);
    h[hole] = h[child];
    hole = child;
    child = 2 * hole + 1;
  }
  if (child < n) {  // a lone left child at the bottom
    h[hole] = h[child];
    hole = child;
  }
  sift_up(hole, last);
  return top;
}

EventQueue::Wake EventQueue::pop_wake() {
  const Entry e = take_top();
  return Wake{e.at, e.key, e.seq, e.thread, e.data};
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

#include "sim/event_queue.hpp"

#include <algorithm>

namespace kop::sim {

namespace {

// std::*_heap comparator ("a sorts after b"), giving a min-heap on
// (at, key, seq).  A lambda, so the heap algorithms inline it, and
// branch-free: equal times are common, so which field decides a
// comparison is hard to predict.
constexpr auto later = [](const auto& a, const auto& b) -> bool {
  return (a.at > b.at) |
         ((a.at == b.at) &
          ((a.key > b.key) | ((a.key == b.key) & (a.seq > b.seq))));
};

}  // namespace

void EventQueue::push(Event ev) {
  Key k{ev.at, ev.key, ev.seq, 0};
  if (free_.empty()) {
    k.slot = static_cast<std::uint32_t>(slab_.size());
    grow_push(slab_, std::move(ev));
  } else {
    k.slot = free_.back();
    free_.pop_back();
    slab_[k.slot] = std::move(ev);
  }
  grow_push(heap_, k);
  std::push_heap(heap_.begin(), heap_.end(), later);
}

Event EventQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const std::uint32_t slot = heap_.back().slot;
  heap_.pop_back();
  grow_push(free_, slot);
  return std::move(slab_[slot]);
}

}  // namespace kop::sim

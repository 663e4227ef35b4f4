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
  std::push_heap(heap_.begin(), heap_.end(), later);
}

void EventQueue::push_wake(const Wake& w) {
  grow_push(heap_, Entry{w.at, w.key, w.seq, w.thread, w.generation});
  std::push_heap(heap_.begin(), heap_.end(), later);
}

EventQueue::Entry EventQueue::take_top() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const Entry e = heap_.back();
  heap_.pop_back();
  return e;
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

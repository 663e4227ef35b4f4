// Flat power-of-two ring buffer with a deque interface (push_back,
// pop_front, pop_back).  Replaces std::deque in the task hot paths:
// one contiguous allocation instead of a chunk map, indices instead of
// iterator arithmetic, and -- the point -- retained capacity, so a
// warm queue never touches the allocator again.  Popped slots are
// reset to a default-constructed T immediately so payloads holding
// resources (std::function captures) are released at pop, matching
// std::deque's destruction timing.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace kop::sim {

template <typename T>
class RingDeque {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }
  T& back() { return buf_[wrap(head_ + count_ - 1)]; }
  const T& back() const { return buf_[wrap(head_ + count_ - 1)]; }
  /// Element `i` counted from the front.
  T& operator[](std::size_t i) { return buf_[wrap(head_ + i)]; }

  void push_back(T v) {
    if (count_ == buf_.size()) grow();
    buf_[wrap(head_ + count_)] = std::move(v);
    ++count_;
  }

  void pop_front() {
    buf_[head_] = T();
    head_ = wrap(head_ + 1);
    --count_;
  }

  void pop_back() {
    buf_[wrap(head_ + count_ - 1)] = T();
    --count_;
  }

  /// Remove element `i`, keeping the others in order.
  void erase(std::size_t i) {
    for (; i + 1 < count_; ++i)
      buf_[wrap(head_ + i)] = std::move(buf_[wrap(head_ + i + 1)]);
    pop_back();
  }

  void clear() {
    while (count_ > 0) pop_back();
    head_ = 0;
  }

 private:
  std::size_t wrap(std::size_t i) const { return i & (buf_.size() - 1); }

  void grow() {
    const std::size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < count_; ++i)
      next[i] = std::move(buf_[wrap(head_ + i)]);
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace kop::sim

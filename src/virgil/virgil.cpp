#include "virgil/virgil.hpp"

#include <stdexcept>

#include "sim/racecheck.hpp"

namespace kop::virgil {

CountdownLatch::CountdownLatch(osal::Os& os, int count)
    : os_(&os), count_(count), gate_(os) {
  if (count < 0) throw std::invalid_argument("CountdownLatch: count < 0");
}

void CountdownLatch::count_down() {
  os_->atomic_op(static_cast<int>(gate_.waiters()));
  sim::race::atomic_rmw(os_->engine(), &count_, "CountdownLatch::count_");
  if (count_ <= 0) throw std::logic_error("CountdownLatch: underflow");
  --count_;
  if (count_ == 0) gate_.notify_all();
}

void CountdownLatch::wait() {
  // Joins in CCK-generated code spin briefly, then sleep.
  sim::race::atomic_load(os_->engine(), &count_);
  while (count_ > 0) {
    gate_.wait(/*spin_ns=*/20 * sim::kMicrosecond);
    sim::race::atomic_load(os_->engine(), &count_);
  }
}

}  // namespace kop::virgil

#include "linuxmodel/futex.hpp"

#include <algorithm>

namespace kop::linuxmodel {

osal::WaitQueue& FutexTable::queue_for(std::uint64_t addr) {
  return queues_.try_emplace(addr, *os_).first->second;
}

void FutexTable::wait(std::uint64_t addr, sim::Time spin_ns) {
  os_->counters().add_on(os_->current_cpu(), telemetry::Counter::kFutexWaits);
  queue_for(addr).wait(spin_ns);
}

bool FutexTable::wait_until(std::uint64_t addr, sim::Time deadline,
                            sim::Time spin_ns) {
  os_->counters().add_on(os_->current_cpu(), telemetry::Counter::kFutexWaits);
  return queue_for(addr).wait_until(deadline, spin_ns);
}

int FutexTable::wake(std::uint64_t addr, int count) {
  auto it = queues_.find(addr);
  if (it == queues_.end()) return 0;
  int woken = 0;
  while (count-- > 0 && it->second.waiters() > 0) {
    it->second.notify_one();
    ++woken;
  }
  if (woken > 0) {
    os_->counters().add_on(os_->current_cpu(),
                           telemetry::Counter::kFutexWakes,
                           static_cast<std::uint64_t>(woken));
  }
  return woken;
}

std::size_t FutexTable::waiters(std::uint64_t addr) const {
  auto it = queues_.find(addr);
  return it == queues_.end() ? 0 : it->second.waiters();
}

}  // namespace kop::linuxmodel

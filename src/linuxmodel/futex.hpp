// Address-keyed futex table, the blocking primitive under Linux
// pthreads (and the thing PIK's syscall layer must emulate, §4.3).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "osal/osal.hpp"

namespace kop::linuxmodel {

class FutexTable {
 public:
  explicit FutexTable(osal::Os& os) : os_(&os) {}

  /// FUTEX_WAIT: block on `addr` (the caller has already checked the
  /// userspace value).  `spin_ns` models the glibc adaptive pre-spin.
  void wait(std::uint64_t addr, sim::Time spin_ns = 0);

  /// FUTEX_WAIT with absolute timeout; false on timeout.
  bool wait_until(std::uint64_t addr, sim::Time deadline, sim::Time spin_ns = 0);

  /// FUTEX_WAKE: wake up to `count` waiters; returns number woken.
  int wake(std::uint64_t addr, int count);

  std::size_t waiters(std::uint64_t addr) const;

 private:
  osal::WaitQueue& queue_for(std::uint64_t addr);

  osal::Os* os_;
  std::unordered_map<std::uint64_t, osal::WaitQueue> queues_;
};

}  // namespace kop::linuxmodel

// Kernel-level synchronization primitives built on osal::WaitQueue
// and the atomic-op cost model.  One implementation serves every
// substrate: the OsCosts wired into the owning Os determine whether a
// blocked waiter pays a futex wake (Linux) or a direct scheduler poke
// (Nautilus).
#pragma once

#include "osal/osal.hpp"

namespace kop::osal {

/// Sleeping mutex with a configurable spin window and barging
/// semantics (an unlocked mutex can be grabbed by a runner before the
/// woken waiter arrives, like real futex-based locks).
class Mutex {
 public:
  explicit Mutex(Os& os, sim::Time spin_ns = 0);

  void lock();
  bool try_lock();
  void unlock();
  bool held() const { return held_; }

 private:
  Os* os_;
  sim::Time spin_ns_;
  bool held_ = false;
  WaitQueue queue_;
};

/// Pure spinlock: waiters never sleep; the wake is always a cacheline
/// transfer.  Matches Nautilus's interrupt-safe spinlocks.
class Spinlock {
 public:
  explicit Spinlock(Os& os);
  void lock();
  bool try_lock();
  void unlock();

 private:
  Mutex impl_;
};

class CondVar {
 public:
  explicit CondVar(Os& os, sim::Time spin_ns = 0);

  /// Atomically release `m` and wait; reacquires `m` before returning.
  void wait(Mutex& m);
  /// Timed variant; false on timeout (m reacquired either way).
  bool wait_until(Mutex& m, sim::Time deadline);
  void signal();
  void broadcast();
  std::size_t waiters() const { return queue_.waiters(); }

 private:
  Os* os_;
  sim::Time spin_ns_;
  WaitQueue queue_;
};

/// Centralized sense-reversing barrier.  Arrival is one contended RMW;
/// release is a broadcast on the sense flag's cacheline.
class Barrier {
 public:
  Barrier(Os& os, int parties, sim::Time spin_ns = sim::kTimeNever);

  void arrive_and_wait();
  int parties() const { return parties_; }

 private:
  Os* os_;
  int parties_;
  sim::Time spin_ns_;
  int arrived_ = 0;
  WaitQueue queue_;
};

class Semaphore {
 public:
  Semaphore(Os& os, int initial, sim::Time spin_ns = 0);
  void post();
  void wait();
  bool try_wait();
  int value() const { return count_; }

 private:
  Os* os_;
  sim::Time spin_ns_;
  int count_;
  WaitQueue queue_;
};

}  // namespace kop::osal

#include "osal/sync.hpp"

#include "sim/racecheck.hpp"

namespace kop::osal {

// Happens-before: each primitive publishes the caller's vector clock on
// the releasing side and joins it on the acquiring side (the race
// detector's acquire/release hooks are no-ops unless enabled).  The
// blocking paths additionally get edges from the engine's wake events;
// the object-level edges here are what covers the *non-blocking* paths
// (barging lock grabs, semaphore fast paths, already-released barriers).

Mutex::Mutex(Os& os, sim::Time spin_ns)
    : os_(&os), spin_ns_(spin_ns), queue_(os) {}

void Mutex::lock() {
  os_->atomic_op(static_cast<int>(queue_.waiters()));
  while (held_) {
    queue_.wait(spin_ns_);
    // Barging: someone else may have taken the lock between our wake
    // and our run; loop re-checks.
  }
  held_ = true;
  sim::race::acquire(os_->engine(), this);
}

bool Mutex::try_lock() {
  os_->atomic_op(static_cast<int>(queue_.waiters()));
  if (held_) return false;
  held_ = true;
  sim::race::acquire(os_->engine(), this);
  return true;
}

void Mutex::unlock() {
  sim::race::release(os_->engine(), this);
  held_ = false;
  os_->atomic_op(0);
  queue_.notify_one();
}

Spinlock::Spinlock(Os& os) : impl_(os, sim::kTimeNever) {}
void Spinlock::lock() { impl_.lock(); }
bool Spinlock::try_lock() { return impl_.try_lock(); }
void Spinlock::unlock() { impl_.unlock(); }

CondVar::CondVar(Os& os, sim::Time spin_ns)
    : os_(&os), spin_ns_(spin_ns), queue_(os) {}

void CondVar::wait(Mutex& m) {
  // The engine is cooperative: between unlock() and queue_.wait() no
  // other sim thread can run, so the release+sleep pair is atomic and
  // there is no lost-wakeup window to close.
  m.unlock();
  queue_.wait(spin_ns_);
  sim::race::acquire(os_->engine(), this);
  m.lock();
}

bool CondVar::wait_until(Mutex& m, sim::Time deadline) {
  m.unlock();
  const bool notified = queue_.wait_until(deadline, spin_ns_);
  if (notified) sim::race::acquire(os_->engine(), this);
  m.lock();
  return notified;
}

void CondVar::signal() {
  sim::race::release(os_->engine(), this);
  queue_.notify_one();
}

void CondVar::broadcast() {
  sim::race::release(os_->engine(), this);
  queue_.notify_all();
}

Barrier::Barrier(Os& os, int parties, sim::Time spin_ns)
    : os_(&os), parties_(parties), spin_ns_(spin_ns),
      queue_(os) {}

void Barrier::arrive_and_wait() {
  // The arrival counter is a single hot cacheline; concurrent arrivals
  // serialize on it.
  os_->atomic_op(static_cast<int>(queue_.waiters()));
  // Publish everything this thread did before the barrier...
  sim::race::release(os_->engine(), this);
  ++arrived_;
  if (arrived_ == parties_) {
    arrived_ = 0;
    queue_.notify_all();
  } else {
    queue_.wait(spin_ns_);
  }
  // ...and leave having observed every other party's arrival.
  sim::race::acquire(os_->engine(), this);
}

Semaphore::Semaphore(Os& os, int initial, sim::Time spin_ns)
    : os_(&os), spin_ns_(spin_ns), count_(initial),
      queue_(os) {}

void Semaphore::post() {
  os_->atomic_op(static_cast<int>(queue_.waiters()));
  sim::race::release(os_->engine(), this);
  ++count_;
  queue_.notify_one();
}

void Semaphore::wait() {
  os_->atomic_op(static_cast<int>(queue_.waiters()));
  while (count_ <= 0) queue_.wait(spin_ns_);
  --count_;
  sim::race::acquire(os_->engine(), this);
}

bool Semaphore::try_wait() {
  os_->atomic_op(0);
  if (count_ <= 0) return false;
  --count_;
  sim::race::acquire(os_->engine(), this);
  return true;
}

}  // namespace kop::osal

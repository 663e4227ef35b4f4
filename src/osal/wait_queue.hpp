// Blocking wait queue with spin-then-block wake semantics, the one
// blocking primitive under every substrate (they differ only in the
// OsCosts of the Os a queue is built from).
#pragma once

#include <cstddef>

#include "hw/cost_params.hpp"
#include "hw/topology.hpp"
#include "sim/engine.hpp"
#include "sim/ring_deque.hpp"
#include "sim/time.hpp"
#include "telemetry/counters.hpp"

namespace kop::osal {

class Os;

/// A waiter declares how long it is willing to spin (`spin_ns`, the
/// KMP_BLOCKTIME idea).  A notify that arrives while the waiter is
/// still inside its spin window wakes it at cacheline-transfer cost;
/// after the window the waiter has "gone to sleep" and the wake pays
/// the OS blocking-wake path (futex syscall + scheduler latency on
/// Linux; a direct scheduler poke in the kernel).  This one asymmetry
/// is responsible for most of the EPCC-visible differences between the
/// user-level and in-kernel runtimes.
///
/// Waiters live on the sleeper's stack, as Linux's DEFINE_WAIT puts a
/// wait_queue_entry there: wait() and wait_until() keep their Waiter in
/// their own frame and the queue holds only pointers, so waiting
/// allocates nothing.  A pointer in the queue never outlives its frame:
///  * only the token that frame armed resumes that block() -- the OS
///    layers wake a blocked thread through its wait's token alone;
///  * notify_one() / notify_all() pop a waiter before they schedule its
///    wake, so a woken waiter is already out of the queue;
///  * a timed-out waiter erases itself before it returns, keeping the
///    other waiters in FIFO order.
/// The queue may be moved only while nobody waits on it.
class WaitQueue {
 public:
  explicit WaitQueue(Os& os);

  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;
  WaitQueue(WaitQueue&&) = default;
  WaitQueue& operator=(WaitQueue&&) = delete;

  /// Block until notified.
  void wait(sim::Time spin_ns);
  /// Block until notified or `deadline`; false on timeout.
  bool wait_until(sim::Time deadline, sim::Time spin_ns);
  void notify_one();
  void notify_all();
  std::size_t waiters() const { return queue_.size(); }

 private:
  struct Waiter {
    sim::WakeToken token;
    sim::Time wait_start;
    sim::Time spin_ns;
    bool notified;
  };

  /// Wake `w` with the appropriate latency; `rank` staggers broadcast
  /// wakes (the release wave of a barrier is serialized on the flag's
  /// cacheline).  Returns true if the waiter had left its spin window
  /// (i.e. the waker used the expensive blocking-wake path).
  bool wake_waiter(Waiter& w, int rank);
  void charge_waker_syscall();

  sim::Engine* engine_;
  const hw::MachineConfig* machine_;
  const hw::OsCosts* costs_;
  telemetry::CounterFabric* counters_;
  sim::RingDeque<Waiter*> queue_;
};

}  // namespace kop::osal

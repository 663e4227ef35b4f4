#include "osal/wait_queue.hpp"

#include "osal/osal.hpp"

namespace kop::osal {

WaitQueue::WaitQueue(Os& os)
    : engine_(&os.engine()),
      machine_(&os.machine()),
      costs_(&os.costs()),
      counters_(&os.counters()) {}

void WaitQueue::wait(sim::Time spin_ns) {
  Waiter w{engine_->arm_wake_token(), engine_->now(), spin_ns, false};
  queue_.push_back(&w);
  engine_->block();
  // Plain waits are only resumed by a notify, which popped `w`.
}

bool WaitQueue::wait_until(sim::Time deadline, sim::Time spin_ns) {
  Waiter w{engine_->arm_wake_token(), engine_->now(), spin_ns, false};
  queue_.push_back(&w);
  engine_->wake_token_at(w.token, deadline);
  engine_->block();
  if (w.notified) return true;
  // Timed out: no notify popped `w`, so it is still queued.
  std::size_t i = 0;
  while (queue_[i] != &w) ++i;
  queue_.erase(i);
  return false;
}

bool WaitQueue::wake_waiter(Waiter& w, int rank) {
  const sim::Time now = engine_->now();
  const bool was_spinning = (now - w.wait_start) <= w.spin_ns;
  sim::Time delay;
  if (was_spinning) {
    // The waiter is polling a shared flag: it observes the store one
    // cacheline transfer later (staggered across a broadcast).
    delay = machine_->cacheline_transfer_ns * (1 + rank / 4);
  } else {
    // The waiter went to sleep: pay the OS blocking-wake path.
    delay = static_cast<sim::Time>(engine_->rng().lognormal_mean_cv(
        static_cast<double>(costs_->wake_latency_ns), costs_->wake_cv));
    delay += costs_->context_switch_ns;
  }
  using telemetry::Counter;
  if (was_spinning) {
    counters_->add(Counter::kSpinWakes);
  } else {
    counters_->add(Counter::kBlockingWakes);
    counters_->add(Counter::kContextSwitches);
    // In-kernel runtimes wake a remote sleeper with an IPI poke
    // instead of a futex syscall.
    if (costs_->syscall_ns <= 0) counters_->add(Counter::kIpis);
  }
  w.notified = true;
  engine_->wake_token_at(w.token, now + delay);
  return !was_spinning;
}

void WaitQueue::charge_waker_syscall() {
  // The waker enters the kernel to perform the wake (futex syscall on
  // Linux; free for in-kernel code where the wake is a function call).
  if (costs_->syscall_ns > 0 && engine_->current() != nullptr) {
    counters_->add(telemetry::Counter::kSyscalls);
    engine_->sleep_for(costs_->syscall_ns);
  }
}

void WaitQueue::notify_one() {
  if (queue_.empty()) return;
  Waiter* w = queue_.front();
  queue_.pop_front();
  if (wake_waiter(*w, 0)) charge_waker_syscall();
}

void WaitQueue::notify_all() {
  bool any_slept = false;
  for (int rank = 0; !queue_.empty(); ++rank) {
    Waiter* w = queue_.front();
    queue_.pop_front();
    any_slept |= wake_waiter(*w, rank);
  }
  if (any_slept) charge_waker_syscall();
}

}  // namespace kop::osal

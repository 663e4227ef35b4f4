#include "hw/cpu.hpp"

#include <algorithm>

namespace kop::hw {

void Cpu::acquire() {
  if (!held_ && wait_queue_.empty()) {
    held_ = true;
    return;
  }
  if (run_holder_.thread != nullptr) {
    // First waiter behind an uncontended run: preempt the holder at the
    // first slice boundary strictly after now, unless the run ends first.
    const sim::Time now = engine_->now();
    const sim::Time boundary =
        run_start_ + ((now - run_start_) / timeslice_ns_ + 1) * timeslice_ns_;
    if (boundary < run_end_) engine_->wake_token_at(run_holder_, boundary);
    run_holder_.thread = nullptr;
  }
  // FIFO with direct handoff: release() transfers ownership to the
  // woken waiter, so the releaser cannot barge back in front of it.
  wait_queue_.push_back(engine_->arm_wake_token());
  engine_->block();
  // Woken by release(): we own the CPU now (held_ stayed true).
}

void Cpu::release() {
  if (!wait_queue_.empty()) {
    sim::WakeToken next = wait_queue_.front();
    wait_queue_.pop_front();
    engine_->wake_token_at(next, engine_->now());
    return;  // ownership passed to the woken thread
  }
  held_ = false;
}

void Cpu::occupy(sim::Time duration) {
  if (duration <= 0) return;
  sim::Time remaining = duration;
  acquire();
  while (remaining > 0) {
    const bool sliced = timeslice_ns_ != sim::kTimeNever && timeslice_ns_ > 0;
    sim::Time ran = sliced ? std::min(remaining, timeslice_ns_) : remaining;
    if (ran < remaining && wait_queue_.empty()) {
      // Uncontended: sleep to the run's end unless a waiter's wake cuts
      // it short at a slice boundary (see acquire()).  Arm the token
      // first: a sleep that runs ahead leaves no room for a waiter.
      run_start_ = engine_->now();
      run_end_ = run_start_ + remaining;
      run_holder_ = engine_->arm_wake_token();
      engine_->sleep_for(remaining);
      run_holder_.thread = nullptr;
      ran = engine_->now() - run_start_;
    } else {
      engine_->sleep_for(ran);
    }
    busy_time_ += ran;
    remaining -= ran;
    if (remaining > 0 && !wait_queue_.empty()) {
      // Preempted: pay a context switch, go to the back of the queue.
      if (counters_) {
        counters_->add_on(id_, telemetry::Counter::kCpuPreemptions);
        counters_->add_on(id_, telemetry::Counter::kContextSwitches, 2);
      }
      engine_->sleep_for(context_switch_ns_);
      busy_time_ += context_switch_ns_;
      release();
      acquire();
      engine_->sleep_for(context_switch_ns_);
      busy_time_ += context_switch_ns_;
    }
  }
  release();
}

}  // namespace kop::hw

// A simulated CPU as an exclusive, FIFO-queued time resource.
//
// Both OS models funnel thread execution through Cpu::occupy(): if the
// CPU is free the calling sim-thread holds it for the duration; if not,
// the caller queues.  When a timeslice is configured (Linux) long
// occupations are chopped into slices and requeued behind waiters,
// charging a context switch each preemption -- which is how
// oversubscription and competing background load degrade Linux runs.
//
// The slice model.  A run's slice boundaries fall every timeslice from
// the moment it took the CPU.  At a boundary before the run's end the
// holder is preempted if a thread waits: it pays a context switch,
// hands the CPU to the first waiter, queues at the back, and pays
// another on its way back in.  A boundary with no waiter changes
// nothing but the clock, so a run that starts with an empty wait queue
// does not stop at them: it sleeps to its end in one event.  The first
// thread to queue behind it computes the first boundary strictly after
// its own arrival and, if that boundary falls before the run's end,
// wakes the holder there through the token the holder armed; from then
// on the holder preempts as above.  A run that starts with waiters
// already queued is sliced one slice at a time.  Nautilus and PIK have
// no timeslice (kTimeNever) and always run to the end in one event.
//
// The one-event form matches stepping slice by slice except in ties:
//   * A waiter that arrives exactly on a boundary is noticed at the next
//     one.  (Stepping noticed it at that boundary whenever the waiter's
//     event had been posted before the holder's slice began.)
//   * The run's end wake is posted when the run begins, not at its last
//     boundary, so an unrelated event at the same nanosecond may be
//     dispatched on the other side of it.
// A preempted run's end wake stays queued and is dispatched later as a
// stale wake (sim::Engine::Stats::stale_wakes).  Under a race checker
// the preemption wake carries the waiter's clock to the holder; the
// hand-off chain (the waiter, and whoever follows it, releasing the
// CPU back to the holder) implies that edge before the holder runs
// user code again, so it hides no race.
#pragma once

#include <cstdint>
#include <deque>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "telemetry/counters.hpp"

namespace kop::hw {

class Cpu {
 public:
  Cpu(sim::Engine& engine, int id, sim::Time timeslice_ns,
      sim::Time context_switch_ns,
      telemetry::CounterFabric* counters = nullptr)
      : engine_(&engine),
        id_(id),
        timeslice_ns_(timeslice_ns),
        context_switch_ns_(context_switch_ns),
        counters_(counters) {}

  int id() const { return id_; }

  /// Execute for `duration` of CPU time on this CPU, queueing and
  /// timeslicing as needed.  Must be called from a sim thread.
  void occupy(sim::Time duration);

  /// Busy virtual time accumulated (for utilization reports).
  sim::Time busy_time() const { return busy_time_; }

  /// Number of threads currently waiting for this CPU.
  std::size_t waiters() const { return wait_queue_.size(); }

  bool held() const { return held_; }

  /// Rebind the scheduling parameters (per-point cost scales); takes
  /// effect from the next occupy() slice.
  void set_sched_costs(sim::Time timeslice_ns, sim::Time context_switch_ns) {
    timeslice_ns_ = timeslice_ns;
    context_switch_ns_ = context_switch_ns;
  }

 private:
  void acquire();
  void release();

  sim::Engine* engine_;
  int id_;
  sim::Time timeslice_ns_;
  sim::Time context_switch_ns_;
  telemetry::CounterFabric* counters_;
  bool held_ = false;
  std::deque<sim::WakeToken> wait_queue_;
  sim::Time busy_time_ = 0;
  // The holder's uncontended run while it sleeps to its end: its wake
  // token (thread null otherwise, and once a waiter has posted the
  // preemption), and when the run began and ends.
  sim::WakeToken run_holder_;
  sim::Time run_start_ = 0;
  sim::Time run_end_ = 0;
};

}  // namespace kop::hw

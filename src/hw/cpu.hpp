// A simulated CPU as an exclusive, FIFO-queued time resource.
//
// Both OS models funnel thread execution through Cpu::occupy(): if the
// CPU is free the calling sim-thread holds it for the duration; if not,
// the caller queues.  When a timeslice is configured (Linux) long
// occupations are chopped into slices and requeued behind waiters,
// charging a context switch each preemption -- which is how
// oversubscription and competing background load degrade Linux runs.
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
};

}  // namespace kop::hw

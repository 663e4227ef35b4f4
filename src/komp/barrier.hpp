// Team barriers: centralized (single counter + broadcast) and a
// radix-2 combining tree that stands in for libomp's default hyper
// barrier.  The tree's O(log n) critical path vs the centralized
// O(n) serialization is measurable with bench/abl_barrier.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "komp/tuning.hpp"
#include "osal/osal.hpp"

namespace kop::komp {

class TeamBarrier {
 public:
  TeamBarrier(osal::Os& os, int parties, RuntimeTuning::BarrierAlgo algo,
              sim::Time spin_ns, sim::Time step_extra_ns);

  /// Rendezvous for thread `tid` (0-based, dense).  Every team thread
  /// must call wait() the same number of times.
  void wait(int tid);

  /// Hook invoked while a thread waits inside the barrier; returns
  /// true if it made progress (it is polled again before sleeping).
  /// komp wires the task pool in here so threads waiting at a barrier
  /// execute pending explicit tasks, as the OpenMP spec requires.
  using WhileWaiting = std::function<bool(int tid)>;
  void set_while_waiting(WhileWaiting fn) { while_waiting_ = std::move(fn); }

  std::uint64_t completed() const { return completed_; }

 private:
  void wait_centralized(int tid);
  void wait_tree(int tid);
  /// Busy bookkeeping charged per tree hop.
  void charge_step();
  /// Park on `gate` until `ready()` holds, polling the while-waiting
  /// hook between sleeps.  A template, so a park builds no closure.
  template <typename Ready>
  void park_until(int tid, osal::WaitQueue& gate, Ready ready);

  struct Slot {
    explicit Slot(osal::Os& os) : gate(os) {}
    std::uint64_t arrive_gen = 0;
    std::uint64_t release_gen = 0;
    osal::WaitQueue gate;
    std::uint64_t local_gen = 0;  // this thread's barrier count
  };

  osal::Os* os_;
  int parties_;
  RuntimeTuning::BarrierAlgo algo_;
  sim::Time spin_ns_;
  sim::Time step_extra_ns_;
  std::vector<Slot> slots_;
  // centralized state
  int arrived_ = 0;
  std::uint64_t central_release_gen_ = 0;
  osal::WaitQueue central_gate_;
  std::uint64_t completed_ = 0;
  WhileWaiting while_waiting_;
};

}  // namespace kop::komp

// Per-build tuning of the komp runtime: which "libomp binary" this is.
//
// PIK runs the pristine user-level binary; RTK runs the port, whose
// pthread-compat layer and kernel allocation paths show up as slightly
// higher per-primitive overheads (what Fig. 7 vs Fig. 8 measures);
// Linux is the stock baseline.  The numbers are bookkeeping costs of
// the runtime itself, charged on the executing CPU.
#pragma once

#include "sim/time.hpp"

namespace kop::komp {

struct RuntimeTuning {
  enum class BarrierAlgo {
    kCentralized,  // single counter + broadcast (O(n) serialization)
    kTree,         // radix-2 gather/release (O(log n) depth); stands in
                   // for libomp's hyper barrier
  };

  /// __kmpc_fork_call bookkeeping before workers are woken.
  sim::Time fork_base_ns = 900;
  /// Additional fork bookkeeping per team thread (argument marshalling,
  /// per-thread state setup).
  sim::Time fork_per_thread_ns = 110;
  /// Master-side join bookkeeping after the join barrier.
  sim::Time join_base_ns = 500;
  /// Worksharing-loop init (__kmpc_for_static_init / dispatch_init).
  sim::Time dispatch_init_ns = 260;
  /// Per-chunk-grab bookkeeping, excluding the shared-counter atomic.
  sim::Time dispatch_next_ns = 120;
  /// Explicit-task allocation + enqueue (__kmpc_omp_task_alloc+task).
  sim::Time task_spawn_ns = 650;
  /// Per-task execution bookkeeping (dequeue, frame switch).
  sim::Time task_exec_ns = 250;
  /// single/master construct bookkeeping.
  sim::Time single_ns = 180;
  /// Per-thread leaf cost of a reduction (combining into the tree).
  sim::Time reduction_leaf_ns = 150;
  /// Per-step cost multiplier applied on top of hardware cacheline
  /// transfers inside the barrier (models the port's extra layers).
  sim::Time barrier_step_extra_ns = 0;
  BarrierAlgo barrier_algo = BarrierAlgo::kTree;
};

/// Stock libomp on Linux.
inline RuntimeTuning linux_libomp_tuning() { return {}; }

/// PIK: the very same binary as Linux -- identical runtime tuning
/// (§6.1: "precisely the same OpenMP runtime, pthread library, and
/// libc/libm are used as with the Linux version").
inline RuntimeTuning pik_libomp_tuning() { return {}; }

/// RTK: the ported runtime.  The pthread compatibility layer and
/// direct kernel memory allocation add small per-primitive overheads
/// (§6.1: "RTK shows slightly higher overhead than the Linux
/// implementation").
inline RuntimeTuning rtk_libomp_tuning() {
  RuntimeTuning t;
  t.fork_base_ns += 600;
  t.fork_per_thread_ns += 60;
  t.join_base_ns += 300;
  t.dispatch_init_ns += 120;
  t.dispatch_next_ns += 60;
  t.task_spawn_ns += 250;
  t.task_exec_ns += 100;
  t.single_ns += 80;
  t.reduction_leaf_ns += 70;
  t.barrier_step_extra_ns = 90;
  return t;
}

}  // namespace kop::komp

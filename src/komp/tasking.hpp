// Explicit-task support: per-thread deques with LIFO pop / FIFO steal,
// tied-task semantics, nesting, and taskwait/barrier scheduling points.
// This is the part of libomp the EPCC taskbench exercises.
//
// Tasks live in a slab (std::deque<Task>: stable addresses, chunked
// growth) and are passed around as 32-bit slot handles through
// RingDeque work queues -- no shared_ptr control blocks or per-spawn
// heap traffic.  A slot is recycled through the freelist once its task
// has finished *and* every child slot has been recycled (children pin
// their parent, mirroring the old parent shared_ptr chain, so
// `pending_children` stays valid for taskwait however long the
// subtree runs).
//
// Stealing follows libomp's __kmp_steal_task: a thief first peeks at
// the victim deque's emptiness without its lock and moves on from an
// empty one at no cost (no lock operation, no event, no simulated
// time); only a victim that looks non-empty is try_locked, and the
// deque is re-checked under the lock, so a victim that drains between
// peek and lock is handled there and correctness never rests on the
// peek.  The peek models libomp's relaxed TCR_4 read and carries no
// race annotation: an atomic_load would add an acquire edge libomp
// does not have and could hide a real deque race from the detector.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "komp/icv.hpp"
#include "komp/tuning.hpp"
#include "osal/sync.hpp"
#include "sim/ring_deque.hpp"

namespace kop::komp {

/// Task body; receives the id of the thread that executes it.
using TaskBody = std::function<void(int exec_tid)>;

class TaskPool {
 public:
  /// `cpu_of_tid` maps team thread ids to their bound CPUs; when given,
  /// steals are classified local/remote by NUMA zone, and under
  /// NumaSched::kHier the victim order walks the topology tree outward
  /// (same zone first, then remote zones ascending SLIT distance)
  /// instead of the flat thread-id ring.
  TaskPool(osal::Os& os, int nthreads, const RuntimeTuning& tuning,
           sim::Time spin_ns, NumaSched numa_sched = NumaSched::kFlat,
           std::vector<int> cpu_of_tid = {});

  /// Spawn a task as a child of `tid`'s current task.
  void spawn(int tid, TaskBody body);

  /// Scheduling point: execute tasks until the current task of `tid`
  /// has no pending children (taskwait semantics).
  void taskwait(int tid);

  /// Scheduling point: execute tasks until no explicit task in the
  /// team is incomplete (the task-draining part of a barrier).
  void drain_all(int tid);

  /// Try to run one task (own deque LIFO, then steal FIFO).
  bool try_run_one(int tid);

  std::size_t incomplete() const { return incomplete_; }
  std::uint64_t executed() const { return executed_; }
  std::uint64_t steals() const { return steals_; }

 private:
  using TaskHandle = std::uint32_t;
  static constexpr TaskHandle kNoTask = ~0u;

  /// How a task reached its executor (NUMA zone of thief vs victim).
  enum class StealKind { kNone, kLocal, kRemote };

  struct Task {
    TaskBody body;
    TaskHandle parent = kNoTask;
    int pending_children = 0;  // incomplete children (taskwait predicate)
    /// Slot pins: 1 for the task itself until it finishes, plus one per
    /// child slot not yet recycled.  Slot returns to the freelist at 0.
    std::uint32_t pins = 0;
  };

  void run(int tid, TaskHandle task, StealKind steal);
  TaskHandle pop_or_steal(int tid, StealKind* steal);
  TaskHandle steal_hier(int tid, StealKind* steal);
  /// Unlocked emptiness peek at a victim's deque (see the file header).
  bool looks_empty(int victim) const;
  TaskHandle alloc_task();
  /// Drop one pin; recycles the slot (and unpins ancestors) at zero.
  void unpin(TaskHandle h);

  osal::Os* os_;
  const RuntimeTuning* tuning_;
  sim::Time spin_ns_;
  NumaSched numa_sched_ = NumaSched::kFlat;
  /// NUMA zone of each team thread's bound CPU (empty: unclassified;
  /// such pools count every steal as local and always steal flat).
  std::vector<int> tid_zone_;
  /// Hier mode only: per-tid victim order (same-zone ring first, then
  /// remote zones ascending SLIT distance) and the index where the
  /// remote victims start.
  std::vector<std::vector<int>> steal_order_;
  std::vector<int> local_victims_;
  std::deque<Task> slab_;
  std::vector<TaskHandle> free_;
  std::vector<sim::RingDeque<TaskHandle>> deques_;
  std::vector<osal::Spinlock> locks_;
  /// The implicit task of each team thread (children bookkeeping for
  /// top-level taskwait); slots 0..nthreads-1, pinned for the pool's
  /// lifetime.
  std::vector<TaskHandle> implicit_;
  /// Task currently executing on each thread (the implicit task when
  /// no explicit task is running).
  std::vector<TaskHandle> current_;
  osal::WaitQueue idle_gate_;
  std::size_t incomplete_ = 0;
  /// Tasks sitting in deques (not yet started).  Lets scheduling-point
  /// polls bail out in O(1) instead of scanning every deque.
  std::size_t queued_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t steals_ = 0;
};

}  // namespace kop::komp

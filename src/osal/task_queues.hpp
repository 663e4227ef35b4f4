// Per-lane work-stealing task queues: the one pool under both VIRGIL
// runtimes (paper §2.1, §5).
//
// Each lane has a task deque, a spinlock and an idle gate; each started
// lane has one worker.  A worker pops its own lane, then walks the other
// lanes from its right-hand neighbour, skipping any whose lock it cannot
// take at once.  A submit pokes only the target lane's idle gate (like
// raising a SoftIRQ on that core).
//
// The two uses differ only in a Flavor:
//  * kKernel -- Nautilus's internal task system, "operating similarly to
//    the SoftIRQ mechanism in the Linux kernel": one lane per CPU, owned
//    by the kernel.  Kernel VIRGIL is "a thin veneer over" it, so it is
//    this object.  Dispatch is a few hundred nanoseconds, far cheaper
//    than a full OpenMP fork/join, which is the whole point of CCK.
//  * kUser -- user VIRGIL, a pool of C++ threads with futex sleeps on
//    Linux: dearer dispatch, and a worker that has stopped spinning pays
//    the full Linux wake path.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "osal/sync.hpp"
#include "sim/ring_deque.hpp"

namespace kop::osal {

using TaskFn = std::function<void()>;

class TaskQueues {
 public:
  struct Flavor {
    ompt::TaskRuntimeKind kind;
    const char* worker_prefix;  // worker thread name, before its lane
    /// Per-task queue/dequeue bookkeeping charged on the executing CPU.
    sim::Time dispatch_cost_ns;
    /// How long an idle worker spins before it sleeps.
    sim::Time idle_spin_ns;
    /// A thief takes the victim's newest task (else its oldest).
    bool steal_newest;
  };
  static const Flavor kKernel;
  static const Flavor kUser;

  /// `lanes` queues, none with a worker until start().
  TaskQueues(Os& os, const Flavor& flavor, int lanes);

  TaskQueues(const TaskQueues&) = delete;
  TaskQueues& operator=(const TaskQueues&) = delete;

  /// Spawn one worker on each of the first `workers` lanes (<= 0: every
  /// lane), from a sim thread or before the engine runs.  Lanes without
  /// a worker still take part in every steal walk.
  void start(int workers = 0);
  /// Signal the workers to drain and exit, then join them.
  void stop();

  /// Hand a ready task to the next started lane, round-robin from lane 0
  /// at each start().  Legal from any sim thread, including a running
  /// task.
  void submit(TaskFn task);
  /// Queue a task on `lane`; throws std::out_of_range unless the lane
  /// has a worker.
  void enqueue(TaskFn task, int lane);

  /// Number of started workers: the lanes submit() cycles over.
  int width() const { return static_cast<int>(workers_.size()); }
  bool kernel() const {
    return flavor_.kind == ompt::TaskRuntimeKind::kKernel;
  }
  /// Tasks queued but not yet started.
  std::size_t pending() const;
  std::uint64_t executed() const { return executed_; }
  std::uint64_t steals() const { return steals_; }

 private:
  struct Lane {
    explicit Lane(Os& os) : lock(os), idle(os) {}
    /// Flat ring instead of std::deque: retained capacity, so a warm
    /// lane queues and steals without touching the allocator.
    sim::RingDeque<TaskFn> tasks;
    Spinlock lock;
    WaitQueue idle;
  };

  void worker_loop(int lane);
  bool try_get(int lane, TaskFn& out, bool* stolen);

  Os* os_;
  Flavor flavor_;
  std::vector<Lane> lanes_;
  std::vector<Thread*> workers_;
  bool stopping_ = false;
  std::uint64_t executed_ = 0;
  std::uint64_t steals_ = 0;
  int next_lane_ = 0;
};

}  // namespace kop::osal

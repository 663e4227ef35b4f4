// VIRGIL: the custom task-based runtime CCK-compiled code targets
// instead of libomp (paper §2.1, §5).
//
// Two variants, as in the paper, over one per-lane work-stealing pool
// (osal::TaskQueues) that differ only in its Flavor:
//  * kernel VIRGIL -- "a thin veneer over the kernel's task framework":
//    the Nautilus kernel's own task queues (NautilusKernel::task_system,
//    TaskQueues::kKernel, one lane per CPU).  ~550 lines of C in the
//    paper.
//  * user VIRGIL -- the user-level version "that uses C++17
//    abstractions to build on top of C++ threads and C++
//    synchronization (including futex) on Linux": a TaskQueues::kUser
//    pool of `width` lanes on the Linux model.  ~620 lines of C++.
//
// VIRGIL is deliberately tiny: it only executes *ready* independent
// tasks.  Dependence checking, joins, and landing tasks are generated
// by the compiler (§5.3-5.4); the runtime is unaware of them.  The
// CountdownLatch here is the primitive that compiler-generated join
// code uses.
#pragma once

#include "osal/task_queues.hpp"

namespace kop::virgil {

using Virgil = osal::TaskQueues;

/// Completion counter used by compiler-generated landing/join code.
class CountdownLatch {
 public:
  CountdownLatch(osal::Os& os, int count);
  void count_down();
  /// Block until the count reaches zero.
  void wait();
  int remaining() const { return count_; }

 private:
  osal::Os* os_;
  int count_;
  osal::WaitQueue gate_;
};

}  // namespace kop::virgil

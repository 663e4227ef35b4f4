#include "osal/task_queues.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/racecheck.hpp"

namespace kop::osal {

// Shared-access annotations follow the same discipline as komp's task
// pool: deque contents are guarded by the per-lane spinlocks (plain
// accesses -- the detector verifies the lock discipline), while
// stopping_, executed_ and steals_ model the runtime's atomics
// (happens-before edges).

const TaskQueues::Flavor TaskQueues::kKernel{
    ompt::TaskRuntimeKind::kKernel, "nk-task-worker-",
    /*dispatch_cost_ns=*/220,
    // Kernel workers spin briefly: they own the CPU anyway.
    /*idle_spin_ns=*/50 * sim::kMicrosecond,
    // The classic work-stealing end.
    /*steal_newest=*/true};

const TaskQueues::Flavor TaskQueues::kUser{
    ompt::TaskRuntimeKind::kUser, "virgil-user-",
    /*dispatch_cost_ns=*/600,
    // User workers spin a little, then futex-sleep: waking them costs
    // the full Linux wake path -- one of the structural costs kernel
    // VIRGIL avoids.
    /*idle_spin_ns=*/5 * sim::kMicrosecond,
    /*steal_newest=*/false};

TaskQueues::TaskQueues(Os& os, const Flavor& flavor, int lanes)
    : os_(&os), flavor_(flavor) {
  if (lanes <= 0) throw std::invalid_argument("TaskQueues: lanes <= 0");
  lanes_.reserve(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) lanes_.emplace_back(os);
}

void TaskQueues::start(int workers) {
  if (!workers_.empty()) throw std::logic_error("TaskQueues: started twice");
  sim::race::atomic_store(os_->engine(), &stopping_, "TaskQueues::stopping_");
  stopping_ = false;
  next_lane_ = 0;
  const int total = static_cast<int>(lanes_.size());
  const int n = workers > 0 ? std::min(workers, total) : total;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int lane = 0; lane < n; ++lane) {
    workers_.push_back(os_->spawn_thread(
        flavor_.worker_prefix + std::to_string(lane),
        [this, lane]() { worker_loop(lane); },
        lane % os_->machine().num_cpus));
  }
}

void TaskQueues::stop() {
  if (workers_.empty()) return;
  sim::race::atomic_store(os_->engine(), &stopping_, "TaskQueues::stopping_");
  stopping_ = true;
  for (auto& q : lanes_) q.idle.notify_all();
  for (auto* w : workers_) os_->join_thread(w);
  workers_.clear();
}

void TaskQueues::submit(TaskFn task) {
  const int lane = next_lane_;
  if (++next_lane_ >= width()) next_lane_ = 0;
  enqueue(std::move(task), lane);
}

void TaskQueues::enqueue(TaskFn task, int lane) {
  if (lane < 0 || lane >= width()) {
    throw std::out_of_range("TaskQueues: lane " + std::to_string(lane) +
                            " has no worker");
  }
  auto& q = lanes_[static_cast<std::size_t>(lane)];
  q.lock.lock();
  sim::race::plain_write(os_->engine(), &q.tasks, "TaskQueues task deque");
  q.tasks.push_back(std::move(task));
  q.lock.unlock();
  os_->tools().emit([&](ompt::Tool& t) {
    t.on_rt_task_submit(flavor_.kind, os_->engine().now(), lane);
  });
  q.idle.notify_one();
}

bool TaskQueues::try_get(int lane, TaskFn& out, bool* stolen) {
  const int n = static_cast<int>(lanes_.size());
  for (int i = 0; i < n; ++i) {
    auto& q = lanes_[static_cast<std::size_t>((lane + i) % n)];
    if (i == 0) {
      q.lock.lock();
    } else if (!q.lock.try_lock()) {
      continue;
    }
    sim::race::plain_read(os_->engine(), &q.tasks, "TaskQueues task deque");
    if (!q.tasks.empty()) {
      sim::race::plain_write(os_->engine(), &q.tasks, "TaskQueues task deque");
      if (i != 0 && flavor_.steal_newest) {
        out = std::move(q.tasks.back());
        q.tasks.pop_back();
      } else {
        out = std::move(q.tasks.front());
        q.tasks.pop_front();
      }
      q.lock.unlock();
      *stolen = i != 0;
      return true;
    }
    q.lock.unlock();
  }
  return false;
}

void TaskQueues::worker_loop(int lane) {
  auto& own = lanes_[static_cast<std::size_t>(lane)];
  for (;;) {
    TaskFn task;
    bool stolen = false;
    if (try_get(lane, task, &stolen)) {
      if (stolen) {
        sim::race::atomic_rmw(os_->engine(), &steals_, "TaskQueues::steals_");
        ++steals_;
        os_->counters().add_on(os_->current_cpu(),
                               telemetry::Counter::kTaskSteals);
      }
      os_->tools().emit([&](ompt::Tool& t) {
        t.on_rt_task_execute(flavor_.kind, ompt::Endpoint::kBegin,
                             os_->engine().now(), lane, stolen);
      });
      os_->compute_ns(flavor_.dispatch_cost_ns);
      task();
      sim::race::atomic_rmw(os_->engine(), &executed_,
                            "TaskQueues::executed_");
      ++executed_;
      os_->tools().emit([&](ompt::Tool& t) {
        t.on_rt_task_execute(flavor_.kind, ompt::Endpoint::kEnd,
                             os_->engine().now(), lane, stolen);
      });
      continue;
    }
    sim::race::atomic_load(os_->engine(), &stopping_);
    if (stopping_) return;
    // try_get yields inside its lock operations; a task may have been
    // queued (and its notify lost) meanwhile.  Recheck the own lane
    // right before parking -- no yield can intervene here.  (The
    // unlocked emptiness peek models an atomic size probe.)
    sim::race::atomic_load(os_->engine(), &own.tasks);
    if (!own.tasks.empty()) continue;
    own.idle.wait(flavor_.idle_spin_ns);
  }
}

std::size_t TaskQueues::pending() const {
  std::size_t n = 0;
  for (const auto& q : lanes_) n += q.tasks.size();
  return n;
}

}  // namespace kop::osal

#include "komp/tasking.hpp"

#include "hw/topo_tree.hpp"
#include "sim/racecheck.hpp"

namespace kop::komp {

// Shared-access annotations: the deque contents are guarded by the
// per-deque spinlocks (plain accesses -- the detector verifies the lock
// discipline); the counters model the runtime's atomics (hb edges, so
// task completion is visible to scheduling-point polls).
//
// Annotation addresses use the slab slots, which are stable for the
// pool's lifetime and recycled through the freelist -- the same address
// reuse discipline the old per-task heap allocations had.

TaskPool::TaskPool(osal::Os& os, int nthreads, const RuntimeTuning& tuning,
                   sim::Time spin_ns, NumaSched numa_sched,
                   std::vector<int> cpu_of_tid)
    : os_(&os), tuning_(&tuning), spin_ns_(spin_ns), numa_sched_(numa_sched),
      idle_gate_(os) {
  deques_.resize(static_cast<std::size_t>(nthreads));
  locks_.reserve(static_cast<std::size_t>(nthreads));
  implicit_.reserve(static_cast<std::size_t>(nthreads));
  current_.reserve(static_cast<std::size_t>(nthreads));
  for (int i = 0; i < nthreads; ++i) {
    locks_.emplace_back(os);
    const TaskHandle imp = alloc_task();
    implicit_.push_back(imp);
    current_.push_back(imp);
  }

  // Topology mapping: zone per tid for steal classification, plus the
  // hierarchical victim orders.  Pools without a CPU map (direct
  // construction in tests) stay flat and count every steal as local.
  if (cpu_of_tid.size() == static_cast<std::size_t>(nthreads) &&
      nthreads > 0) {
    const hw::TopoTree tree(os.machine());
    tid_zone_.resize(static_cast<std::size_t>(nthreads));
    for (int i = 0; i < nthreads; ++i)
      tid_zone_[static_cast<std::size_t>(i)] =
          tree.zone_of_cpu(cpu_of_tid[static_cast<std::size_t>(i)]);
    if (numa_sched_ == NumaSched::kHier) {
      steal_order_.resize(static_cast<std::size_t>(nthreads));
      local_victims_.resize(static_cast<std::size_t>(nthreads));
      for (int tid = 0; tid < nthreads; ++tid) {
        auto& order = steal_order_[static_cast<std::size_t>(tid)];
        const int my_zone = tid_zone_[static_cast<std::size_t>(tid)];
        // Same-zone victims keep the flat ring order (from tid+1), so a
        // single-zone team steals in exactly the flat sequence.
        for (int i = 1; i < nthreads; ++i) {
          const int v = (tid + i) % nthreads;
          if (tid_zone_[static_cast<std::size_t>(v)] == my_zone)
            order.push_back(v);
        }
        local_victims_[static_cast<std::size_t>(tid)] =
            static_cast<int>(order.size());
        // Remote zones ascending SLIT distance (tie: zone id); victims
        // within a zone ascending by tid.
        for (int z : tree.zones_by_distance(my_zone)) {
          if (z == my_zone) continue;
          for (int v = 0; v < nthreads; ++v) {
            if (v != tid && tid_zone_[static_cast<std::size_t>(v)] == z)
              order.push_back(v);
          }
        }
      }
    }
  }
}

TaskPool::TaskHandle TaskPool::alloc_task() {
  TaskHandle h;
  if (!free_.empty()) {
    h = free_.back();
    free_.pop_back();
  } else {
    h = static_cast<TaskHandle>(slab_.size());
    slab_.emplace_back();
  }
  Task& t = slab_[h];
  t.parent = kNoTask;
  t.pending_children = 0;
  t.pins = 1;
  return h;
}

void TaskPool::unpin(TaskHandle h) {
  while (h != kNoTask) {
    Task& t = slab_[h];
    if (--t.pins != 0) return;
    const TaskHandle parent = t.parent;
    t.body = nullptr;
    t.parent = kNoTask;
    free_.push_back(h);
    h = parent;  // the recycled child releases its pin on the parent
  }
}

void TaskPool::spawn(int tid, TaskBody body) {
  os_->compute_ns(tuning_->task_spawn_ns);
  os_->tools().emit([&](ompt::Tool& t) {
    t.on_task_create(os_->engine().now(), tid);
  });
  const TaskHandle h = alloc_task();
  const TaskHandle parent = current_[static_cast<std::size_t>(tid)];
  slab_[h].body = std::move(body);
  slab_[h].parent = parent;
  slab_[parent].pins++;  // the child slot pins its parent's slot
  sim::race::atomic_rmw(os_->engine(), &slab_[parent].pending_children,
                        "Task::pending_children");
  slab_[parent].pending_children++;
  sim::race::atomic_rmw(os_->engine(), &incomplete_, "TaskPool::incomplete_");
  ++incomplete_;
  sim::race::atomic_rmw(os_->engine(), &queued_, "TaskPool::queued_");
  ++queued_;
  auto& lock = locks_[static_cast<std::size_t>(tid)];
  lock.lock();
  sim::race::plain_write(os_->engine(), &deques_[static_cast<std::size_t>(tid)],
                         "TaskPool task deque");
  deques_[static_cast<std::size_t>(tid)].push_back(h);
  lock.unlock();
  // Poke one idle helper (threads waiting at a scheduling point).
  idle_gate_.notify_one();
}

bool TaskPool::looks_empty(int victim) const {
  // __kmp_steal_task's relaxed TCR_4(td_deque_ntasks) read: no lock, no
  // event, no simulated time, and no race annotation (see the header).
  return deques_[static_cast<std::size_t>(victim)].empty();
}

TaskPool::TaskHandle TaskPool::pop_or_steal(int tid, StealKind* steal) {
  *steal = StealKind::kNone;
  sim::race::atomic_load(os_->engine(), &queued_);
  if (queued_ == 0) return kNoTask;  // O(1) bail-out for idle polls
  const auto n = static_cast<int>(deques_.size());
  // Own deque: LIFO (depth-first, cache-friendly).
  {
    auto& lock = locks_[static_cast<std::size_t>(tid)];
    lock.lock();
    auto& dq = deques_[static_cast<std::size_t>(tid)];
    sim::race::plain_read(os_->engine(), &dq, "TaskPool task deque");
    if (!dq.empty()) {
      sim::race::plain_write(os_->engine(), &dq, "TaskPool task deque");
      const TaskHandle t = dq.back();
      dq.pop_back();
      sim::race::atomic_rmw(os_->engine(), &queued_, "TaskPool::queued_");
      --queued_;
      lock.unlock();
      return t;
    }
    lock.unlock();
  }
  if (!steal_order_.empty()) return steal_hier(tid, steal);
  // Flat steal: FIFO from a victim (breadth-first, big chunks of work).
  for (int i = 1; i < n; ++i) {
    const int victim = (tid + i) % n;
    if (looks_empty(victim)) continue;
    auto& lock = locks_[static_cast<std::size_t>(victim)];
    if (!lock.try_lock()) continue;
    auto& dq = deques_[static_cast<std::size_t>(victim)];
    sim::race::plain_read(os_->engine(), &dq, "TaskPool task deque");
    if (!dq.empty()) {  // locked re-check: it may have drained since the peek
      sim::race::plain_write(os_->engine(), &dq, "TaskPool task deque");
      const TaskHandle t = dq.front();
      dq.pop_front();
      sim::race::atomic_rmw(os_->engine(), &queued_, "TaskPool::queued_");
      --queued_;
      lock.unlock();
      ++steals_;
      *steal = tid_zone_.empty() ||
                       tid_zone_[static_cast<std::size_t>(victim)] ==
                           tid_zone_[static_cast<std::size_t>(tid)]
                   ? StealKind::kLocal
                   : StealKind::kRemote;
      return t;
    }
    lock.unlock();
  }
  return kNoTask;
}

// Hierarchical steal: same-zone victims first (flat ring order), then
// remote zones ascending SLIT distance.  Pass 0 only raids a remote
// deque holding >= remote_steal_min_queue tasks; if that gate starved
// the thief while remote work existed, pass 1 retries remote victims
// ungated so the pool can never wedge with work outstanding.  A remote
// hit takes a batch: the front task executes as the stolen one, up to
// remote_steal_batch-1 followers are re-queued on the thief's own deque
// so same-zone neighbours find them locally.
TaskPool::TaskHandle TaskPool::steal_hier(int tid, StealKind* steal) {
  const auto& order = steal_order_[static_cast<std::size_t>(tid)];
  const int local_n = local_victims_[static_cast<std::size_t>(tid)];
  bool gated_remote = false;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      const bool remote = static_cast<int>(i) >= local_n;
      if (pass == 1 && !remote) continue;
      const int victim = order[i];
      if (looks_empty(victim)) continue;
      auto& lock = locks_[static_cast<std::size_t>(victim)];
      if (!lock.try_lock()) continue;
      auto& dq = deques_[static_cast<std::size_t>(victim)];
      sim::race::plain_read(os_->engine(), &dq, "TaskPool task deque");
      if (dq.empty()) {  // locked re-check, as in the flat ring
        lock.unlock();
        continue;
      }
      if (pass == 0 && remote &&
          dq.size() <
              static_cast<std::size_t>(tuning_->remote_steal_min_queue)) {
        gated_remote = true;
        lock.unlock();
        continue;
      }
      sim::race::plain_write(os_->engine(), &dq, "TaskPool task deque");
      const TaskHandle t = dq.front();
      dq.pop_front();
      sim::race::atomic_rmw(os_->engine(), &queued_, "TaskPool::queued_");
      --queued_;
      std::vector<TaskHandle> batch;
      if (remote) {
        for (int k = 1; k < tuning_->remote_steal_batch && !dq.empty(); ++k) {
          batch.push_back(dq.front());
          dq.pop_front();
        }
      }
      lock.unlock();
      if (!batch.empty()) {
        // Re-home the followers on the thief's deque (they stay counted
        // in queued_: still unstarted, just parked elsewhere).  The
        // victim's lock is released first -- blocking on the own lock
        // while holding a victim's could cross-deadlock two thieves.
        auto& own = locks_[static_cast<std::size_t>(tid)];
        own.lock();
        auto& mine = deques_[static_cast<std::size_t>(tid)];
        sim::race::plain_write(os_->engine(), &mine, "TaskPool task deque");
        for (TaskHandle h : batch) mine.push_back(h);
        own.unlock();
        idle_gate_.notify_one();
      }
      ++steals_;
      *steal = remote ? StealKind::kRemote : StealKind::kLocal;
      return t;
    }
    if (!gated_remote) break;
  }
  return kNoTask;
}

void TaskPool::run(int tid, TaskHandle task, StealKind steal) {
  const bool stolen = steal != StealKind::kNone;
  if (stolen) {
    const int cpu = os_->current_cpu();
    os_->counters().add_on(cpu, telemetry::Counter::kTaskSteals);
    os_->counters().add_on(cpu, steal == StealKind::kRemote
                                    ? telemetry::Counter::kTaskStealsRemote
                                    : telemetry::Counter::kTaskStealsLocal);
  }
  os_->tools().emit([&](ompt::Tool& t) {
    t.on_task_schedule(ompt::Endpoint::kBegin, os_->engine().now(), tid,
                       stolen);
  });
  os_->compute_ns(tuning_->task_exec_ns);
  auto& cur = current_[static_cast<std::size_t>(tid)];
  const TaskHandle saved = cur;
  cur = task;
  // The body may spawn (growing the slab's chunk map), so move it out
  // rather than holding a reference across the call.
  TaskBody body = std::move(slab_[task].body);
  if (body) body(tid);
  cur = saved;
  os_->tools().emit([&](ompt::Tool& t) {
    t.on_task_schedule(ompt::Endpoint::kEnd, os_->engine().now(), tid,
                       stolen);
  });
  const TaskHandle parent = slab_[task].parent;
  sim::race::atomic_rmw(os_->engine(), &slab_[parent].pending_children,
                        "Task::pending_children");
  slab_[parent].pending_children--;
  sim::race::atomic_rmw(os_->engine(), &incomplete_, "TaskPool::incomplete_");
  --incomplete_;
  ++executed_;
  const bool parent_drained = slab_[parent].pending_children == 0;
  unpin(task);  // finished: drop the task's own pin (children may remain)
  // Wake waiters only when a predicate could have flipped: a taskwait
  // waits for its task's last child, drain_all for pool exhaustion.
  // (Broadcasting on every completion makes task-heavy regions
  // quadratic in wakeups.)
  if (parent_drained || incomplete_ == 0)
    idle_gate_.notify_all();
}

bool TaskPool::try_run_one(int tid) {
  StealKind steal = StealKind::kNone;
  const TaskHandle t = pop_or_steal(tid, &steal);
  if (t == kNoTask) return false;
  run(tid, t, steal);
  return true;
}

void TaskPool::taskwait(int tid) {
  const TaskHandle cur = current_[static_cast<std::size_t>(tid)];
  for (;;) {
    sim::race::atomic_load(os_->engine(), &slab_[cur].pending_children);
    if (slab_[cur].pending_children == 0) return;
    if (try_run_one(tid)) continue;
    // try_run_one yields inside its lock ops, so the last child may
    // have completed meanwhile; recheck right before parking (no yield
    // can occur between this check and the wait registration).
    sim::race::atomic_load(os_->engine(), &slab_[cur].pending_children);
    if (slab_[cur].pending_children == 0) return;
    idle_gate_.wait(spin_ns_);
  }
}

void TaskPool::drain_all(int tid) {
  for (;;) {
    sim::race::atomic_load(os_->engine(), &incomplete_);
    if (incomplete_ == 0) return;
    if (try_run_one(tid)) continue;
    sim::race::atomic_load(os_->engine(), &incomplete_);
    if (incomplete_ == 0) return;
    idle_gate_.wait(spin_ns_);
  }
}

}  // namespace kop::komp

#include "komp/runtime.hpp"

#include <stdexcept>

#include "sim/racecheck.hpp"

namespace kop::komp {

// The fork/join protocol is published through epoch_: the master writes
// current_team_/current_body_ *before* the release-store to epoch_, and
// a worker only dereferences them after the acquire-load that saw the
// new epoch.  The race detector checks exactly that discipline (the
// team pointers are plain data; epoch_, shutdown_ and departed_ model
// the runtime's atomics).

Runtime::Runtime(pthread_compat::Pthreads& pthreads, RuntimeTuning tuning)
    : pthreads_(&pthreads),
      os_(&pthreads.os()),
      tuning_(tuning),
      icv_(icv_from_environment(pthreads.os())) {}

Runtime::~Runtime() {
  if (workers_.empty()) return;
  sim::race::atomic_store(os_->engine(), &shutdown_, "Runtime::shutdown_");
  shutdown_ = true;
  for (auto& w : workers_) w->gate.notify_all();
  for (auto& w : workers_) pthreads_->join(w->thread);
}

void Runtime::set_num_threads(int n) {
  if (n <= 0) throw std::invalid_argument("set_num_threads: n <= 0");
  sim::race::plain_write(os_->engine(), &icv_.nthreads_var,
                         "Icv::nthreads_var");
  icv_.nthreads_var = std::min(
      n, static_cast<int>(os_->sys_conf(osal::SysConfKey::kNumProcessors)));
}

double Runtime::wtime() const {
  return sim::to_seconds(os_->engine().now());
}

std::unique_ptr<OmpLock> Runtime::make_lock() {
  return std::make_unique<OmpLock>(*os_, icv_.blocktime_ns,
                                   ompt::MutexKind::kLock);
}

OmpLock& Runtime::critical_lock(const std::string& name) {
  auto& slot = critical_locks_[name];
  if (slot == nullptr)
    slot = std::make_unique<OmpLock>(*os_, icv_.blocktime_ns,
                                     ompt::MutexKind::kCritical);
  return *slot;
}

int Runtime::cpu_for_team_thread(int tid) const {
  const int ncpus = os_->machine().num_cpus;
  if (icv_.proc_bind == ProcBind::kSpread) {
    // Stride team threads across the machine (thread 0 stays on CPU 0,
    // matching the master's placement).
    const int team = std::max(1, icv_.nthreads_var);
    return static_cast<int>((static_cast<long>(tid) * ncpus) / team) % ncpus;
  }
  return tid % ncpus;  // close: consecutive CPUs
}

void Runtime::ensure_pool(int nthreads) {
  const int needed = nthreads - 1;
  while (pool_size() < needed) {
    const int index = pool_size();
    workers_.push_back(std::make_unique<Worker>(*os_));
    // Worker i serves team thread id i+1; placement follows
    // OMP_PROC_BIND.
    pthread_compat::PthreadAttr attr;
    attr.bound_cpu = cpu_for_team_thread(index + 1);
    workers_.back()->thread = pthreads_->create(
        &attr, [this, index](void*) -> void* {
          worker_main(index);
          return nullptr;
        },
        nullptr);
  }
}

void Runtime::run_region_body(Team& team, int tid, const RegionBody& body) {
  ompt::Registry& tools = os_->tools();
  tools.emit([&](ompt::Tool& t) {
    t.on_implicit_task(ompt::Endpoint::kBegin, os_->engine().now(), tid,
                       team.size());
  });
  TeamThread tt(team, tid);
  body(tt);
  // Implicit end-of-region barrier (with task draining).
  tt.region_end_barrier();
  tools.emit([&](ompt::Tool& t) {
    t.on_implicit_task(ompt::Endpoint::kEnd, os_->engine().now(), tid,
                       team.size());
  });
}

void Runtime::worker_main(int worker_index) {
  Worker& me = *workers_[static_cast<std::size_t>(worker_index)];
  for (;;) {
    sim::race::atomic_load(os_->engine(), &shutdown_);
    sim::race::atomic_load(os_->engine(), &epoch_);
    while (!shutdown_ && me.seen_epoch == epoch_) {
      me.gate.wait(icv_.blocktime_ns);
      sim::race::atomic_load(os_->engine(), &shutdown_);
      sim::race::atomic_load(os_->engine(), &epoch_);
    }
    if (shutdown_) return;
    me.seen_epoch = epoch_;
    sim::race::plain_read(os_->engine(), &current_team_,
                          "Runtime::current_team_");
    Team* team = current_team_;
    sim::race::plain_read(os_->engine(), &current_body_,
                          "Runtime::current_body_");
    const RegionBody* body = current_body_;
    const int tid = worker_index + 1;
    if (team != nullptr && tid < team->size()) {
      run_region_body(*team, tid, *body);
      // Fully out of the region: the master can retire the team once
      // everyone has checked out.
      sim::race::atomic_rmw(os_->engine(), &team->departed_,
                            "Team::departed_");
      ++team->departed_;
      team->exit_gate_.notify_one();
    }
  }
}

void Runtime::parallel(int nthreads, const RegionBody& body) {
  if (os_->current_thread() == nullptr)
    throw std::logic_error("komp: parallel() outside an OS thread");
  sim::race::plain_read(os_->engine(), &icv_.nthreads_var,
                        "Icv::nthreads_var");
  int n = nthreads > 0 ? nthreads : icv_.nthreads_var;
  n = std::min(n, os_->machine().num_cpus);

  if (in_parallel_ || n == 1) {
    // Nested or single-thread region: serialize onto the caller.
    os_->tools().emit([&](ompt::Tool& t) {
      t.on_parallel(ompt::Endpoint::kBegin, os_->engine().now(), 1);
    });
    Team team(*this, 1);
    run_region_body(team, 0, body);
    os_->tools().emit([&](ompt::Tool& t) {
      t.on_parallel(ompt::Endpoint::kEnd, os_->engine().now(), 1);
    });
    return;
  }

  // __kmpc_fork_call bookkeeping.
  os_->tools().emit([&](ompt::Tool& t) {
    t.on_parallel(ompt::Endpoint::kBegin, os_->engine().now(), n);
  });
  os_->compute_ns(tuning_.fork_base_ns +
                  static_cast<sim::Time>(n) * tuning_.fork_per_thread_ns);
  ensure_pool(n);

  Team team(*this, n);
  in_parallel_ = true;
  sim::race::plain_write(os_->engine(), &current_team_,
                         "Runtime::current_team_");
  current_team_ = &team;
  sim::race::plain_write(os_->engine(), &current_body_,
                         "Runtime::current_body_");
  current_body_ = &body;
  sim::race::atomic_store(os_->engine(), &epoch_, "Runtime::epoch_");
  ++epoch_;
  for (int i = 0; i < n - 1; ++i)
    workers_[static_cast<std::size_t>(i)]->gate.notify_one();

  // The master is team thread 0.
  run_region_body(team, 0, body);

  // Wait for every worker to leave the region before the Team (and its
  // barrier gates) is destroyed; their post-barrier wakes may still be
  // in flight.
  sim::race::atomic_load(os_->engine(), &team.departed_);
  while (team.departed_ < n - 1) {
    team.exit_gate_.wait(icv_.blocktime_ns);
    sim::race::atomic_load(os_->engine(), &team.departed_);
  }

  sim::race::plain_write(os_->engine(), &current_team_,
                         "Runtime::current_team_");
  current_team_ = nullptr;
  sim::race::plain_write(os_->engine(), &current_body_,
                         "Runtime::current_body_");
  current_body_ = nullptr;
  in_parallel_ = false;
  os_->compute_ns(tuning_.join_base_ns);
  os_->tools().emit([&](ompt::Tool& t) {
    t.on_parallel(ompt::Endpoint::kEnd, os_->engine().now(), n);
  });
}

}  // namespace kop::komp

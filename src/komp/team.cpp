#include "komp/team.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "komp/runtime.hpp"
#include "sim/racecheck.hpp"

namespace kop::komp {

// Worksharing state is annotated for the race detector the way the
// modelled runtime would implement it: dispatch-buffer init is an
// acquire/release-published claim, grab counters are hardware atomics,
// and payload fields (bounds, accumulators) are plain data whose
// ordering must come from those edges or from the team barrier.

std::vector<int> Team::cpu_map(const Runtime& rt, int size) {
  std::vector<int> cpus(static_cast<std::size_t>(size));
  for (int tid = 0; tid < size; ++tid)
    cpus[static_cast<std::size_t>(tid)] = rt.cpu_for_team_thread(tid);
  return cpus;
}

Team::Team(Runtime& rt, int size)
    : rt_(&rt),
      size_(size),
      barrier_(rt.os(), size, rt.tuning().barrier_algo, rt.icv().blocktime_ns,
               rt.tuning().barrier_step_extra_ns),
      pool_(rt.os(), size, rt.tuning(), rt.icv().blocktime_ns,
            rt.icv().numa_sched, cpu_map(rt, size)),
      members_(static_cast<std::size_t>(size), nullptr),
      exit_gate_(rt.os()) {
  // Threads waiting at a barrier execute pending explicit tasks.
  barrier_.set_while_waiting([this](int tid) { return pool_.try_run_one(tid); });
}

TeamThread& Team::member(int tid) {
  TeamThread* t = members_.at(static_cast<std::size_t>(tid));
  if (t == nullptr) throw std::logic_error("Team::member: thread not active");
  return *t;
}

std::shared_ptr<Team::LoopState> Team::loop_state(std::uint64_t gen) {
  auto& slot = loops_[gen];
  if (slot == nullptr) slot = std::make_shared<LoopState>(rt_->os());
  return slot;
}

void Team::finish_loop(std::uint64_t gen, LoopState& st) {
  sim::race::atomic_rmw(rt_->os().engine(), &st.done_count,
                        "LoopState::done_count");
  ++st.done_count;
  if (st.done_count == size_) loops_.erase(gen);
}

TeamThread::TeamThread(Team& team, int tid) : team_(&team), tid_(tid) {
  team.members_.at(static_cast<std::size_t>(tid)) = this;
}

TeamThread::~TeamThread() {
  team_->members_.at(static_cast<std::size_t>(tid_)) = nullptr;
}

int TeamThread::nthreads() const { return team_->size(); }

Runtime& TeamThread::runtime() { return team_->runtime(); }

osal::Os& TeamThread::os() { return team_->runtime().os(); }

void TeamThread::compute(const hw::WorkBlock& block, int data_zone) {
  os().compute(block, data_zone);
}

void TeamThread::compute_ns(sim::Time ns) { os().compute_ns(ns); }

void TeamThread::compute_partitioned(const hw::WorkBlock& block, int part,
                                     int nparts) {
  const int zone = os().resolve_data_zone(block.region, part, nparts);
  os().compute(block, zone);
}

void TeamThread::charge_memcpy(std::uint64_t bytes) {
  const double bw = os().machine().copy_bytes_per_ns;
  hw::WorkBlock b;
  b.cpu_ns = static_cast<sim::Time>(static_cast<double>(bytes) / bw);
  b.mem_fraction = 0.9;
  os().compute(b);
}

namespace {

ompt::WorkKind work_kind_for(Schedule sched) {
  switch (sched) {
    case Schedule::kStaticChunked: return ompt::WorkKind::kLoopStaticChunked;
    case Schedule::kDynamic:       return ompt::WorkKind::kLoopDynamic;
    case Schedule::kGuided:        return ompt::WorkKind::kLoopGuided;
    case Schedule::kRuntime:
    case Schedule::kStatic:        break;
  }
  return ompt::WorkKind::kLoopStatic;
}

}  // namespace

void TeamThread::for_loop(Schedule sched, int chunk, std::int64_t lo,
                          std::int64_t hi, const RangeBody& body, bool nowait) {
  if (sched == Schedule::kRuntime) {
    // schedule(runtime): resolve against the run-sched ICV.
    sched = runtime().icv().run_sched_var;
    if (chunk <= 0) chunk = runtime().icv().run_sched_chunk;
  }
  for_loop_impl(sched, chunk, lo, hi, body, nowait, work_kind_for(sched));
}

void TeamThread::for_loop_impl(Schedule sched, int chunk, std::int64_t lo,
                               std::int64_t hi, const RangeBody& body,
                               bool nowait, ompt::WorkKind kind) {
  const RuntimeTuning& tune = runtime().tuning();
  os().compute_ns(tune.dispatch_init_ns);
  ompt::Registry& tools = os().tools();
  tools.emit([&](ompt::Tool& t) {
    t.on_work(kind, ompt::Endpoint::kBegin, os().engine().now(), tid_,
              std::max<std::int64_t>(0, hi - lo));
  });
  const std::uint64_t gen = ++loop_gen_;
  const int n = nthreads();
  const std::int64_t total = std::max<std::int64_t>(0, hi - lo);

  switch (sched) {
    case Schedule::kRuntime:  // for_loop resolves it; unreachable
    case Schedule::kStatic: {
      // One contiguous block per thread, split *proportionally*
      // (thread t gets [t*total/n, (t+1)*total/n)).  Proportional
      // splitting keeps the block boundaries of loops with different
      // trip counts over the same data aligned -- which is what makes
      // first-touch NUMA placement from the init loops land local for
      // the compute loops, as in the real NAS codes.
      const std::int64_t b = lo + tid_ * total / n;
      const std::int64_t e = lo + (tid_ + 1) * total / n;
      if (b < e) body(b, e);
      break;
    }
    case Schedule::kStaticChunked: {
      const std::int64_t c = std::max<std::int64_t>(1, chunk);
      for (std::int64_t b = lo + tid_ * c; b < hi; b += c * n) {
        os().compute_ns(tune.dispatch_next_ns);
        const std::int64_t e = std::min(hi, b + c);
        tools.emit([&](ompt::Tool& t) {
          t.on_dispatch(os().engine().now(), tid_, b, e);
        });
        body(b, e);
      }
      break;
    }
    case Schedule::kDynamic:
    case Schedule::kGuided: {
      auto st = team_->loop_state(gen);
      sim::race::atomic_load(os().engine(), &st->init);
      if (!st->init) {
        st->init = true;
        st->next = lo;
        st->hi = hi;
        st->chunk = std::max<std::int64_t>(1, chunk);  // guided: the minimum
        sim::race::atomic_store(os().engine(), &st->init, "LoopState::init");
      }
      for (;;) {
        os().compute_ns(tune.dispatch_next_ns);
        ++st->grabbers;
        os().atomic_op(st->grabbers - 1);
        --st->grabbers;
        sim::race::atomic_rmw(os().engine(), &st->next, "LoopState::next");
        sim::race::plain_read(os().engine(), &st->hi, "LoopState::hi");
        const std::int64_t remaining = st->hi - st->next;
        if (remaining <= 0) break;
        // Guided grabs a 1/(2n) share of what remains, never less than
        // the chunk; dynamic grabs the chunk.
        const std::int64_t c =
            sched == Schedule::kGuided
                ? std::max(st->chunk,
                           remaining / (2 * static_cast<std::int64_t>(n)))
                : st->chunk;
        const std::int64_t b = st->next;
        const std::int64_t e = std::min(st->hi, b + c);
        st->next = e;
        tools.emit([&](ompt::Tool& t) {
          t.on_dispatch(os().engine().now(), tid_, b, e);
        });
        body(b, e);
      }
      team_->finish_loop(gen, *st);
      break;
    }
  }
  tools.emit([&](ompt::Tool& t) {
    t.on_work(kind, ompt::Endpoint::kEnd, os().engine().now(), tid_,
              std::max<std::int64_t>(0, hi - lo));
  });
  if (!nowait) barrier_internal(ompt::SyncRegion::kBarrierImplicit);
}

void TeamThread::for_ordered(std::int64_t lo, std::int64_t hi,
                             const std::function<void(std::int64_t)>& body) {
  const RuntimeTuning& tune = runtime().tuning();
  os().compute_ns(tune.dispatch_init_ns);
  ompt::Registry& tools = os().tools();
  tools.emit([&](ompt::Tool& t) {
    t.on_work(ompt::WorkKind::kOrdered, ompt::Endpoint::kBegin,
              os().engine().now(), tid_, std::max<std::int64_t>(0, hi - lo));
  });
  const std::uint64_t gen = ++loop_gen_;
  const int n = nthreads();
  auto st = team_->loop_state(gen);
  sim::race::atomic_load(os().engine(), &st->init);
  if (!st->init) {
    st->init = true;
    st->ordered_next = lo;
    sim::race::atomic_store(os().engine(), &st->init, "LoopState::init");
  }
  // schedule(static,1): iteration i on thread i % n; each iteration
  // waits its turn (ordered-section semantics over the whole body).
  for (std::int64_t i = lo + tid_; i < hi; i += n) {
    sim::race::atomic_load(os().engine(), &st->ordered_next);
    while (st->ordered_next < i) {
      st->ordered_gate.wait(runtime().icv().blocktime_ns);
      sim::race::atomic_load(os().engine(), &st->ordered_next);
    }
    body(i);
    sim::race::atomic_store(os().engine(), &st->ordered_next,
                            "LoopState::ordered_next");
    st->ordered_next = i + 1;
    st->ordered_gate.notify_all();
  }
  team_->finish_loop(gen, *st);
  tools.emit([&](ompt::Tool& t) {
    t.on_work(ompt::WorkKind::kOrdered, ompt::Endpoint::kEnd,
              os().engine().now(), tid_, std::max<std::int64_t>(0, hi - lo));
  });
  barrier_internal(ompt::SyncRegion::kBarrierImplicit);
}

void TeamThread::sections(const std::vector<std::function<void()>>& bodies,
                          bool nowait) {
  // Lowered exactly like libomp: a dynamic worksharing loop over the
  // section indices (tools see it as a sections construct).
  for_loop_impl(Schedule::kDynamic, 1, 0,
                static_cast<std::int64_t>(bodies.size()),
                [&](std::int64_t b, std::int64_t e) {
                  for (std::int64_t i = b; i < e; ++i)
                    bodies[static_cast<std::size_t>(i)]();
                },
                nowait, ompt::WorkKind::kSections);
}

void TeamThread::barrier_internal(ompt::SyncRegion kind) {
  ompt::Registry& tools = os().tools();
  tools.emit([&](ompt::Tool& t) {
    t.on_sync_region(kind, ompt::Endpoint::kBegin, os().engine().now(), tid_);
  });
  // Scheduling point: explicit tasks must complete before release.
  if (team_->pool_.incomplete() > 0) team_->pool_.drain_all(tid_);
  team_->barrier_.wait(tid_);
  tools.emit([&](ompt::Tool& t) {
    t.on_sync_region(kind, ompt::Endpoint::kEnd, os().engine().now(), tid_);
  });
}

void TeamThread::barrier() {
  barrier_internal(ompt::SyncRegion::kBarrierExplicit);
}

void TeamThread::region_end_barrier() {
  barrier_internal(ompt::SyncRegion::kBarrierImplicit);
}

bool TeamThread::single(const std::function<void()>& body, bool nowait) {
  const RuntimeTuning& tune = runtime().tuning();
  ompt::Registry& tools = os().tools();
  tools.emit([&](ompt::Tool& t) {
    t.on_work(ompt::WorkKind::kSingle, ompt::Endpoint::kBegin,
              os().engine().now(), tid_, 1);
  });
  os().compute_ns(tune.single_ns);
  os().atomic_op(0);
  const std::uint64_t my_gen = single_seen_++;
  bool executed = false;
  sim::race::atomic_rmw(os().engine(), &team_->single_claims_,
                        "Team::single_claims_");
  if (team_->single_claims_ <= my_gen) {
    team_->single_claims_ = my_gen + 1;
    executed = true;
    body();
  }
  tools.emit([&](ompt::Tool& t) {
    t.on_work(ompt::WorkKind::kSingle, ompt::Endpoint::kEnd,
              os().engine().now(), tid_, 1);
  });
  if (!nowait) barrier_internal(ompt::SyncRegion::kBarrierImplicit);
  return executed;
}

void TeamThread::master(const std::function<void()>& body) {
  if (tid_ == 0) body();
}

void TeamThread::critical(const std::string& name,
                          const std::function<void()>& body) {
  OmpLock& lock = runtime().critical_lock(name);
  lock.set();
  body();
  lock.unset();
}

void TeamThread::atomic_update() {
  // A team hammering one scalar: contention scales with team size.
  os().atomic_op(nthreads() - 1);
}

void TeamThread::copyprivate(std::uint64_t bytes,
                             const std::function<void()>& body) {
  const bool executed = single(body, /*nowait=*/false);
  if (!executed) charge_memcpy(bytes);
  barrier_internal(ompt::SyncRegion::kBarrierImplicit);
}

double TeamThread::reduce(double value, ReduceOp op) {
  const RuntimeTuning& tune = runtime().tuning();
  os().compute_ns(tune.reduction_leaf_ns);
  const std::uint64_t gen = ++reduce_gen_;
  auto& slot = team_->reduces_[gen];
  if (slot == nullptr) slot = std::make_shared<Team::ReduceState>();
  auto st = slot;
  sim::race::atomic_load(os().engine(), &st->init);
  if (!st->init) {
    st->init = true;
    switch (op) {
      case ReduceOp::kSum: st->acc = 0.0; break;
      case ReduceOp::kProd: st->acc = 1.0; break;
      case ReduceOp::kMin: st->acc = std::numeric_limits<double>::infinity(); break;
      case ReduceOp::kMax: st->acc = -std::numeric_limits<double>::infinity(); break;
    }
    sim::race::atomic_store(os().engine(), &st->acc, "ReduceState::acc");
    sim::race::atomic_store(os().engine(), &st->init, "ReduceState::init");
  }
  os().atomic_op(st->arrived);
  sim::race::atomic_rmw(os().engine(), &st->arrived, "ReduceState::arrived");
  ++st->arrived;
  sim::race::atomic_rmw(os().engine(), &st->acc, "ReduceState::acc");
  switch (op) {
    case ReduceOp::kSum: st->acc += value; break;
    case ReduceOp::kProd: st->acc *= value; break;
    case ReduceOp::kMin: st->acc = std::min(st->acc, value); break;
    case ReduceOp::kMax: st->acc = std::max(st->acc, value); break;
  }
  barrier_internal(ompt::SyncRegion::kBarrierImplicit);
  // The combined value is read plainly: the barrier's release/acquire
  // edges are the only thing making this safe, which is exactly what
  // the detector verifies here.
  sim::race::plain_read(os().engine(), &st->acc, "ReduceState::acc");
  const double result = st->acc;
  // Second rendezvous so the slot can be retired exactly once.
  barrier_internal(ompt::SyncRegion::kBarrierImplicit);
  if (tid_ == 0) team_->reduces_.erase(gen);
  return result;
}

void TeamThread::task(const std::function<void(TeamThread&)>& body) {
  Team* team = team_;
  team_->pool_.spawn(tid_, [team, body](int exec_tid) {
    body(team->member(exec_tid));
  });
}

void TeamThread::task_if(bool cond,
                         const std::function<void(TeamThread&)>& body) {
  if (cond) {
    task(body);
    return;
  }
  // Undeferred: allocation + immediate execution on this thread.
  os().compute_ns(runtime().tuning().task_spawn_ns +
                  runtime().tuning().task_exec_ns);
  body(*this);
}

void TeamThread::taskwait() {
  ompt::Registry& tools = os().tools();
  tools.emit([&](ompt::Tool& t) {
    t.on_sync_region(ompt::SyncRegion::kTaskwait, ompt::Endpoint::kBegin,
                     os().engine().now(), tid_);
  });
  team_->pool_.taskwait(tid_);
  tools.emit([&](ompt::Tool& t) {
    t.on_sync_region(ompt::SyncRegion::kTaskwait, ompt::Endpoint::kEnd,
                     os().engine().now(), tid_);
  });
}

void TeamThread::taskloop(std::int64_t lo, std::int64_t hi,
                          std::int64_t grainsize,
                          const std::function<void(TeamThread&, std::int64_t,
                                                   std::int64_t)>& body) {
  const std::int64_t total = std::max<std::int64_t>(0, hi - lo);
  if (total == 0) return;
  std::int64_t grain = grainsize;
  if (grain <= 0) {
    grain = std::max<std::int64_t>(
        1, total / (8 * static_cast<std::int64_t>(nthreads())));
  }
  for (std::int64_t b = lo; b < hi; b += grain) {
    const std::int64_t e = std::min(hi, b + grain);
    task([body, b, e](TeamThread& ex) { body(ex, b, e); });
  }
  taskwait();
}

}  // namespace kop::komp

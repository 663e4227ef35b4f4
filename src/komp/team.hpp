// Teams and the per-thread view of a parallel region.
//
// TeamThread is what Clang-lowered code sees through __kmpc_* entry
// points: worksharing-loop dispatch (static / static-chunked / dynamic
// / guided), barriers (with task draining), single / master / critical
// / ordered / atomic, reductions, and explicit tasks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "komp/barrier.hpp"
#include "komp/icv.hpp"
#include "komp/tasking.hpp"
#include "komp/tuning.hpp"
#include "ompt/ompt.hpp"

namespace kop::komp {

class Runtime;
class Team;

enum class ReduceOp { kSum, kProd, kMin, kMax };

class TeamThread {
 public:
  TeamThread(Team& team, int tid);
  ~TeamThread();

  TeamThread(const TeamThread&) = delete;
  TeamThread& operator=(const TeamThread&) = delete;

  int id() const { return tid_; }
  int nthreads() const;
  Team& team() { return *team_; }
  Runtime& runtime();
  osal::Os& os();

  // --- executing application work ---
  void compute(const hw::WorkBlock& block, int data_zone = -1);
  void compute_ns(sim::Time ns);
  /// Work touching partition `part` of `nparts` of `region` (resolves
  /// the NUMA zone, applying first-touch if the OS deferred placement).
  void compute_partitioned(const hw::WorkBlock& block, int part, int nparts);
  /// Cost of copying `bytes` (private-array init, copyin, copyprivate).
  void charge_memcpy(std::uint64_t bytes);

  // --- worksharing ---
  using RangeBody = std::function<void(std::int64_t begin, std::int64_t end)>;
  /// #pragma omp for schedule(...) [nowait]
  void for_loop(Schedule sched, int chunk, std::int64_t lo, std::int64_t hi,
                const RangeBody& body, bool nowait = false);
  /// #pragma omp for ordered schedule(static,1): `body(i)` runs with
  /// ordered-section semantics (iteration order preserved).
  void for_ordered(std::int64_t lo, std::int64_t hi,
                   const std::function<void(std::int64_t)>& body);
  /// #pragma omp sections: each body runs exactly once, distributed
  /// over the team first-come-first-served; implicit barrier unless
  /// nowait.
  void sections(const std::vector<std::function<void()>>& bodies,
                bool nowait = false);

  // --- synchronization ---
  void barrier();
  /// The implicit barrier closing a parallel region (fired by the
  /// runtime, not user code; reported to tools as barrier-implicit).
  void region_end_barrier();
  /// Returns true on the thread that executed the body.
  bool single(const std::function<void()>& body, bool nowait = false);
  void master(const std::function<void()>& body);
  void critical(const std::string& name, const std::function<void()>& body);
  /// #pragma omp atomic on a shared scalar contended by the team.
  void atomic_update();
  /// single copyprivate(buf): executor runs body; everyone else copies
  /// `bytes` out of the executor's buffer.
  void copyprivate(std::uint64_t bytes, const std::function<void()>& body);
  double reduce(double value, ReduceOp op);

  // --- tasks ---
  void task(const std::function<void(TeamThread&)>& body);
  /// #pragma omp task if(cond): when cond is false the task is
  /// undeferred -- executed immediately by the encountering thread
  /// (still paying the task bookkeeping).
  void task_if(bool cond, const std::function<void(TeamThread&)>& body);
  void taskwait();
  /// #pragma omp taskloop grainsize(g): the encountering thread slices
  /// [lo, hi) into tasks of ~g iterations and waits for them (no
  /// nogroup support).  g <= 0 picks a default aiming at ~8 tasks per
  /// team thread.
  void taskloop(std::int64_t lo, std::int64_t hi, std::int64_t grainsize,
                const std::function<void(TeamThread&, std::int64_t,
                                         std::int64_t)>& body);

 private:
  friend class Team;

  void barrier_internal(ompt::SyncRegion kind);
  /// Worksharing core; `kind` is what tools see (sections are lowered
  /// onto a dynamic loop but must report as sections).
  void for_loop_impl(Schedule sched, int chunk, std::int64_t lo,
                     std::int64_t hi, const RangeBody& body, bool nowait,
                     ompt::WorkKind kind);

  Team* team_;
  int tid_;
  std::uint64_t loop_gen_ = 0;
  std::uint64_t single_seen_ = 0;
  std::uint64_t reduce_gen_ = 0;
};

class Team {
 public:
  Team(Runtime& rt, int size);

  int size() const { return size_; }
  Runtime& runtime() { return *rt_; }
  TaskPool& tasks() { return pool_; }
  TeamBarrier& barrier_impl() { return barrier_; }

  /// TeamThread for a live member (used by task execution to give the
  /// executing thread its own context).
  TeamThread& member(int tid);

 private:
  friend class TeamThread;

  struct LoopState {
    explicit LoopState(osal::Os& os) : ordered_gate(os) {}
    bool init = false;
    std::int64_t next = 0;
    std::int64_t hi = 0;
    std::int64_t chunk = 1;
    int grabbers = 0;    // threads concurrently hitting the counter
    int done_count = 0;  // threads finished with this loop
    // ordered support
    std::int64_t ordered_next = 0;
    osal::WaitQueue ordered_gate;
  };
  struct ReduceState {
    bool init = false;
    double acc = 0.0;
    int arrived = 0;
  };

  std::shared_ptr<LoopState> loop_state(std::uint64_t gen);
  void finish_loop(std::uint64_t gen, LoopState& st);
  /// Where each team thread runs (per OMP_PROC_BIND), so the task pool
  /// can map the team onto the NUMA topology.
  static std::vector<int> cpu_map(const Runtime& rt, int size);

  Runtime* rt_;
  int size_;
  TeamBarrier barrier_;
  TaskPool pool_;
  std::uint64_t single_claims_ = 0;
  std::map<std::uint64_t, std::shared_ptr<LoopState>> loops_;
  std::map<std::uint64_t, std::shared_ptr<ReduceState>> reduces_;
  std::vector<TeamThread*> members_;

  // Region-exit rendezvous: the master may not destroy the Team until
  // every worker has fully left the region (their delayed barrier
  // wakes still reference the team's gates).
  friend class Runtime;
  int departed_ = 0;
  osal::WaitQueue exit_gate_;
};

}  // namespace kop::komp

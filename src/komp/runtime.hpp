// The komp OpenMP runtime: thread pool, fork/join, ICVs, locks.
//
// Mirrors libomp's role in the paper: code "compiled" against OpenMP
// calls Runtime::parallel() the way Clang-lowered code calls
// __kmpc_fork_call.  The runtime is written purely against the
// pthread_compat API plus the env/sysconf services -- exactly the
// dependency surface §3 says libomp needs -- so the same runtime runs
// on Linux (baseline), in RTK (ported, PTE or native pthreads), and in
// PIK (unchanged binary over emulated syscalls).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "komp/icv.hpp"
#include "komp/lock.hpp"
#include "komp/team.hpp"
#include "komp/tuning.hpp"
#include "pthread_compat/pthreads.hpp"

namespace kop::komp {

class Runtime {
 public:
  /// `pthreads` supplies threading; its Os supplies everything else.
  /// ICVs are initialized from the environment (OMP_NUM_THREADS, ...).
  Runtime(pthread_compat::Pthreads& pthreads, RuntimeTuning tuning = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- the fork/join entry point ---
  using RegionBody = std::function<void(TeamThread&)>;
  /// #pragma omp parallel num_threads(n); n <= 0 uses nthreads-var.
  /// Must be called from an OS thread (the application's initial
  /// thread); nested calls serialize onto a team of one.
  void parallel(int nthreads, const RegionBody& body);
  void parallel(const RegionBody& body) { parallel(0, body); }

  // --- omp_* API surface ---
  int max_threads() const { return icv_.nthreads_var; }
  void set_num_threads(int n);
  double wtime() const;
  std::unique_ptr<OmpLock> make_lock();
  const Icv& icv() const { return icv_; }
  const RuntimeTuning& tuning() const { return tuning_; }

  osal::Os& os() { return *os_; }
  pthread_compat::Pthreads& pthreads() { return *pthreads_; }

  /// Named-critical lock (shared across teams, as in libomp).
  OmpLock& critical_lock(const std::string& name);

  /// Workers currently in the pool (grows on demand).
  int pool_size() const { return static_cast<int>(workers_.size()); }
  bool in_parallel() const { return in_parallel_; }

 private:
  friend class Team;
  friend class TeamThread;

  struct Worker {
    explicit Worker(osal::Os& os) : gate(os) {}
    pthread_compat::Pthread* thread = nullptr;
    std::uint64_t seen_epoch = 0;
    osal::WaitQueue gate;
  };

  void ensure_pool(int nthreads);
  /// OMP_PROC_BIND placement: which CPU team thread `tid` runs on.
  int cpu_for_team_thread(int tid) const;
  void worker_main(int worker_index);
  /// Run `body` for `tid` with the implicit end-of-region barrier.
  void run_region_body(Team& team, int tid, const RegionBody& body);

  pthread_compat::Pthreads* pthreads_;
  osal::Os* os_;
  RuntimeTuning tuning_;
  Icv icv_;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool shutdown_ = false;
  bool in_parallel_ = false;
  std::uint64_t epoch_ = 0;
  Team* current_team_ = nullptr;
  const RegionBody* current_body_ = nullptr;
  std::map<std::string, std::unique_ptr<OmpLock>> critical_locks_;
};

}  // namespace kop::komp

// OS abstraction layer: the kernel that everything above it
// (pthread_compat, komp, virgil, the benchmark suites) runs on.
//
// Mirrors the paper's layering: libomp is written against pthreads +
// libc-ish services; pthreads is written against kernel primitives.
// Here those kernel primitives are the Os class: thread plumbing over
// the sim engine, CPU occupancy, work charging, env vars.  The OS
// substrates derive from it and supply what actually differs: cost
// sheets and memory-placement policy -- plus their own distinctive
// subsystems (buddy allocator / task system / loader for Nautilus;
// paging and futexes for the Linux model).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/cost_params.hpp"
#include "hw/cpu.hpp"
#include "hw/exec_model.hpp"
#include "hw/memory.hpp"
#include "hw/topology.hpp"
#include "ompt/ompt.hpp"
#include "osal/tracer.hpp"
#include "osal/wait_queue.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "telemetry/counters.hpp"

namespace kop::osal {

/// An OS thread (kernel thread in Nautilus, task in the Linux model).
class Thread {
 public:
  Thread(std::string name, int cpu) : name_(std::move(name)), cpu_(cpu) {}
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  const std::string& name() const { return name_; }
  int bound_cpu() const { return cpu_; }
  bool done() const { return done_; }

 private:
  friend class Os;

  std::string name_;
  int cpu_;
  bool done_ = false;
  std::vector<sim::WakeToken> joiners_;
};

/// NUMA placement request for a region allocation.
struct AllocPolicy {
  enum class Kind {
    kLocal,       // zone preferred by the allocating CPU
    kZone,        // explicit zone
    kFirstTouch,  // zones assigned as partitions are first touched
  };
  Kind kind = Kind::kLocal;
  int zone = 0;  // for kZone

  static AllocPolicy local() { return {}; }
  static AllocPolicy in_zone(int z) { return {Kind::kZone, z}; }
  static AllocPolicy first_touch() { return {Kind::kFirstTouch, 0}; }
};

enum class SysConfKey {
  kNumProcessors,       // _SC_NPROCESSORS_ONLN
  kNumProcessorsConf,   // _SC_NPROCESSORS_CONF
  kPageSize,            // _SC_PAGESIZE
};

/// The kernel-primitive surface.
class Os {
 public:
  Os(sim::Engine& engine, hw::MachineConfig machine, hw::OsCosts costs);
  Os(const Os&) = delete;
  Os& operator=(const Os&) = delete;
  virtual ~Os();

  sim::Engine& engine() { return *engine_; }
  const hw::MachineConfig& machine() const { return machine_; }
  const hw::OsCosts& costs() const { return costs_; }
  /// Swap in a new cost sheet (per-point cost scales): the execution
  /// model and per-CPU scheduling parameters are rebuilt from `costs`.
  /// Call after boot, before the workload runs; the personality must
  /// match the current sheet.
  void rebind_costs(const hw::OsCosts& costs);

  // --- observability ---
  /// Per-CPU hardware/OS event counters (page faults, TLB misses,
  /// interrupts, ...).  Fed by the hw + osal layers and the substrates;
  /// snapshot after a run to explain the paper's §6.2 contrasts.
  telemetry::CounterFabric& counters() { return counters_; }
  /// OMPT-like tool registry: runtimes above (komp, virgil, nautilus
  /// task system) emit construct events; tools attach here without
  /// touching runtime code.
  ompt::Registry& tools() { return tools_; }
  /// Per-CPU activity tracing (Chrome trace-event export); disabled by
  /// default, enable with tracer().enable().
  Tracer& tracer() { return tracer_; }

  // --- threads ---
  /// Spawn a thread bound to `cpu` (-1: round-robin placement).
  /// The cost sheet's thread_create_ns is charged to the *caller*.
  Thread* spawn_thread(std::string name, std::function<void()> fn,
                       int cpu = -1);
  void join_thread(Thread* t);
  Thread* current_thread();
  int current_cpu();

  // --- execution ---
  /// Run a work block on the current CPU (queueing/timeslicing under
  /// the OS's rules); charges the full cost model.
  void compute(const hw::WorkBlock& block, int data_zone = -1);
  /// Pure-compute convenience.
  void compute_ns(sim::Time ns) {
    hw::WorkBlock b;
    b.cpu_ns = ns;
    compute(b);
  }
  /// Charge an atomic RMW on a cacheline contended by ~`contenders`
  /// other CPUs.
  void atomic_op(int contenders = 0);

  hw::Cpu& cpu(int id) { return *cpus_.at(static_cast<std::size_t>(id)); }
  const hw::ExecModel& exec_model() const { return exec_; }

  // --- memory ---
  hw::MemRegion* alloc_region(std::string name, std::uint64_t bytes,
                              AllocPolicy policy);
  void free_region(hw::MemRegion* region);
  /// Zone the data for partition `part` of `nparts` of `region` lives
  /// in, applying first-touch assignment if the policy deferred it.
  int resolve_data_zone(hw::MemRegion* region, int part, int nparts);
  /// Enable migration-on-next-touch as the placement policy for regions
  /// allocated from here on: each one is armed so its first access per
  /// slice re-homes the slice to the toucher's preferred DRAM zone.
  void set_next_touch_migration(bool on) { next_touch_migration_ = on; }

  // --- environment / configuration (libomp's libc dependencies, §3.4) ---
  std::optional<std::string> get_env(const std::string& key) const;
  void set_env(const std::string& key, std::string value);
  long sys_conf(SysConfKey key) const;

 protected:
  /// OS-specific placement: page size, demand paging, zone assignment.
  virtual void place_region(hw::MemRegion& region, AllocPolicy policy) = 0;

  /// Marks a region for first-touch assignment (all slices unassigned).
  static void defer_placement(hw::MemRegion& region);

  sim::Engine* engine_;
  hw::MachineConfig machine_;
  hw::OsCosts costs_;

 private:
  /// Granularity of deferred (first-touch) zone assignment.
  static constexpr int kFirstTouchSlices = 64;

  hw::ExecModel exec_;
  Tracer tracer_;
  telemetry::CounterFabric counters_;
  ompt::Registry tools_;
  std::vector<std::unique_ptr<hw::Cpu>> cpus_;
  std::vector<std::unique_ptr<Thread>> threads_;
  std::vector<std::unique_ptr<hw::MemRegion>> regions_;
  std::unordered_map<std::string, std::string> env_;
  int next_rr_cpu_ = 0;
  /// Arm regions allocated from now on for migration-on-next-touch.
  bool next_touch_migration_ = false;
};

}  // namespace kop::osal

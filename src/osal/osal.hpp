// OS abstraction layer: the contract between the OS substrates
// (nautilus, linuxmodel) and everything above them (pthread_compat,
// komp, virgil, the benchmark suites).
//
// Mirrors the paper's layering: libomp is written against pthreads +
// libc-ish services; pthreads is written against kernel primitives.
// Here those kernel primitives are the Os interface.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "hw/cost_params.hpp"
#include "hw/memory.hpp"
#include "hw/topology.hpp"
#include "ompt/ompt.hpp"
#include "osal/wait_queue.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "telemetry/counters.hpp"

namespace kop::osal {

/// Opaque handle to an OS thread (kernel thread in Nautilus, task in
/// the Linux model).
class Thread {
 public:
  virtual ~Thread() = default;
  virtual const std::string& name() const = 0;
  virtual int bound_cpu() const = 0;
  virtual bool done() const = 0;
};

/// NUMA placement request for a region allocation.
struct AllocPolicy {
  enum class Kind {
    kLocal,       // zone preferred by the allocating CPU
    kZone,        // explicit zone
    kInterleave,  // round-robin across DRAM zones
    kFirstTouch,  // zones assigned as partitions are first touched
  };
  Kind kind = Kind::kLocal;
  int zone = 0;  // for kZone

  static AllocPolicy local() { return {}; }
  static AllocPolicy in_zone(int z) { return {Kind::kZone, z}; }
  static AllocPolicy interleave() { return {Kind::kInterleave, 0}; }
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
  virtual ~Os() = default;

  virtual sim::Engine& engine() = 0;
  virtual const hw::MachineConfig& machine() const = 0;
  virtual const hw::OsCosts& costs() const = 0;
  /// Swap in a new cost sheet (per-point cost scales): the execution
  /// model and per-CPU scheduling parameters are rebuilt from `costs`.
  /// Call after boot, before the workload runs; the personality must
  /// match the current sheet.
  virtual void rebind_costs(const hw::OsCosts& costs) = 0;

  // --- observability ---
  /// Per-CPU hardware/OS event counters (page faults, TLB misses,
  /// interrupts, ...).  Fed by the hw + osal layers and the substrates;
  /// snapshot after a run to explain the paper's §6.2 contrasts.
  virtual telemetry::CounterFabric& counters() = 0;
  /// OMPT-like tool registry: runtimes above (komp, virgil, nautilus
  /// task system) emit construct events; tools attach here without
  /// touching runtime code.
  virtual ompt::Registry& tools() = 0;

  // --- threads ---
  /// Spawn a thread bound to `cpu` (-1: round-robin placement).
  /// Creation cost is charged to the *caller*; `create_cost_ns`
  /// overrides the cost sheet's thread_create_ns (used by lighter
  /// execution contexts such as fibers; -1: use the sheet).
  virtual Thread* spawn_thread(std::string name, std::function<void()> fn,
                               int cpu = -1,
                               sim::Time create_cost_ns = -1) = 0;
  virtual void join_thread(Thread* t) = 0;
  virtual Thread* current_thread() = 0;
  virtual int current_cpu() = 0;
  virtual void yield() = 0;
  virtual void sleep_ns(sim::Time ns) = 0;

  // --- execution ---
  /// Run a work block on the current CPU (queueing/timeslicing under
  /// the OS's rules); charges the full cost model.
  virtual void compute(const hw::WorkBlock& block, int data_zone = -1) = 0;
  /// Pure-compute convenience.
  void compute_ns(sim::Time ns) {
    hw::WorkBlock b;
    b.cpu_ns = ns;
    compute(b);
  }
  /// Charge an atomic RMW on a cacheline contended by ~`contenders`
  /// other CPUs.
  virtual void atomic_op(int contenders = 0) = 0;

  // --- memory ---
  virtual hw::MemRegion* alloc_region(std::string name, std::uint64_t bytes,
                                      AllocPolicy policy) = 0;
  virtual void free_region(hw::MemRegion* region) = 0;
  /// Zone the data for partition `part` of `nparts` of `region` lives
  /// in, applying first-touch assignment if the policy deferred it.
  virtual int resolve_data_zone(hw::MemRegion* region, int part, int nparts) = 0;
  /// Enable migration-on-next-touch as the placement policy for regions
  /// allocated from here on: each one is armed so its first access per
  /// slice re-homes the slice to the toucher's preferred DRAM zone.
  /// Default: unsupported, silently off (substrates opt in).
  virtual void set_next_touch_migration(bool on) { (void)on; }

  // --- environment / configuration (libomp's libc dependencies, §3.4) ---
  virtual std::optional<std::string> get_env(const std::string& key) const = 0;
  virtual void set_env(const std::string& key, std::string value) = 0;
  virtual long sys_conf(SysConfKey key) const = 0;
};

}  // namespace kop::osal

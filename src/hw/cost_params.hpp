// Per-OS-personality cost parameters.
//
// These constants are the calibration surface of the whole reproduction:
// every Linux-vs-kernel performance difference the paper reports flows
// from the differences between linux_costs() and nautilus_costs().
// Provenance notes are attached to each default.  EXPERIMENTS.md records
// how the calibrated values map onto the paper's measurements.
#pragma once

#include <string>
#include <vector>

#include "hw/memory.hpp"
#include "hw/topology.hpp"
#include "sim/time.hpp"

namespace kop::hw {

struct OsCosts {
  std::string personality;  // "linux", "nautilus"

  // --- paging ---
  /// Demand paging: anonymous memory faults on first touch (Linux).
  /// Nautilus identity-maps everything at boot: no faults, ever (§2.1).
  bool demand_paging = false;
  /// Cost of one minor fault (allocate + zero + map).  ~2-4us on Linux
  /// for 4K; THP faults cost more but amortize over 512x coverage.
  sim::Time minor_fault_ns = 2500;
  /// Fraction of a large anonymous allocation that THP=madvise manages
  /// to back with 2M pages; the rest stays 4K (alignment heads/tails,
  /// fragmentation).  Nautilus: not applicable (always large pages).
  double thp_2m_fraction = 0.0;
  /// Page size the OS maps memory with when not demand-paged
  /// (Nautilus: largest possible, §2.1).
  PageSize mapped_page_size = PageSize::k4K;

  // --- control transfers ---
  /// User->kernel->user syscall round trip (Linux, with mitigations).
  /// PIK's same-privilege, same-address-space "syscall" is far cheaper.
  sim::Time syscall_ns = 450;
  /// Thread context switch (save/restore, runqueue ops, [Linux] paging
  /// structures).
  sim::Time context_switch_ns = 1200;
  /// Kernel-side cost of creating a thread.
  sim::Time thread_create_ns = 12'000;

  // --- blocking wake latency (futex on Linux; direct scheduler poke in
  // the kernel).  Applied when a sleeping (not spinning) thread is
  // woken; cv models the jitter of the wake path. ---
  sim::Time wake_latency_ns = 3500;
  double wake_cv = 0.40;

  // --- periodic interference while a CPU is busy ---
  /// Scheduler-tick period while a runnable task occupies the CPU
  /// (both kernels are "tickless" when idle, not when busy).
  sim::Time tick_period_ns = sim::kMillisecond;
  /// CPU time stolen per tick.  Nautilus's one-shot LAPIC path with
  /// deterministic handlers is much cheaper than Linux's tick work.
  sim::Time tick_cost_ns = 2000;
  /// Asynchronous OS noise (daemons, RCU, IRQs steered to this CPU):
  /// mean events per second per busy CPU, mean stolen time per event,
  /// and jitter.  Nautilus steers interrupts away and runs nothing
  /// else: effectively zero (§2.1, §6.2 "greatly diminished OS noise").
  double noise_rate_hz = 0.0;
  sim::Time noise_mean_ns = 0;
  double noise_cv = 1.0;

  // --- scheduling ---
  /// Preemption timeslice when CPUs are oversubscribed (Linux CFS-ish).
  /// Kernel threads in Nautilus cooperate; slice is effectively infinite.
  sim::Time timeslice_ns = 6 * sim::kMillisecond;
  /// Competing runnable threads per CPU (Linux background load).  The
  /// paper stresses Nautilus has "precisely zero competitive
  /// threads/processes" (§6.2).
  double competing_load = 0.0;

  // --- memory allocation path ---
  /// Fixed cost of a large allocation request (mmap vs buddy).
  sim::Time alloc_base_ns = 2000;
  /// Whether allocation placement is NUMA-cognizant at allocation time
  /// (Nautilus buddy per-zone) or deferred to first touch (Linux).
  bool numa_aware_alloc = false;

  /// Code-generation penalty of compiling without x64 red-zone support
  /// (§3.1: kernel-linked code must not use the red zone; leaf
  /// functions lose a small amount of performance).  Multiplies the
  /// compute portion of work blocks.  PIK keeps the red zone (IST
  /// trampoline on interrupts instead, §4.2) so it stays at 1.0.
  double compute_inflation = 1.0;
};

/// --- Per-point cost scales (bisection, property tests) ---------------
///
/// The bisection driver (examples/kop_bisect) and the property suite
/// perturb one calibrated constant at a time.  A perturbation is a
/// multiplicative scale keyed "personality.field" (e.g.
/// "linux.minor_fault_ns") carried in a point's canonical form
/// (harness/jobs/point.hpp), so its cache key names the scale.  The
/// job layer applies it to one booted stack's cost sheet right after
/// boot, before the workload runs (osal::Os::rebind_costs); the sheets
/// these factories return are never modified.

/// Every scalable key: "linux.*" then "nautilus.*", in field order.
std::vector<std::string> cost_param_names();
/// True iff `field` names a scalable OsCosts field (the per-personality
/// field set cost_param_names() enumerates).
bool is_cost_field(const std::string& field);
/// Multiply one field of `c` by `scale` in place.  Throws
/// std::invalid_argument for an unknown field or a non-positive scale.
void apply_cost_scale(OsCosts& c, const std::string& field, double scale);

/// Linux 5.x, CentOS/Ubuntu, huge pages on, THP=madvise (paper §2.2).
inline OsCosts linux_costs(const MachineConfig& m) {
  OsCosts c;
  c.personality = "linux";
  c.demand_paging = true;
  c.minor_fault_ns = (m.name == "phi") ? 6000 : 2500;  // slow Phi cores
  c.thp_2m_fraction = 0.80;
  c.mapped_page_size = PageSize::k2M;  // what THP gives when it works
  c.syscall_ns = (m.name == "phi") ? 1400 : 450;
  c.context_switch_ns = (m.name == "phi") ? 4200 : 1300;
  c.thread_create_ns = (m.name == "phi") ? 45'000 : 14'000;
  c.wake_latency_ns = (m.name == "phi") ? 9000 : 3000;
  c.wake_cv = 0.45;
  c.tick_period_ns = 4 * sim::kMillisecond;  // CONFIG_HZ=250
  c.tick_cost_ns = (m.name == "phi") ? 7000 : 2200;
  // OS noise (kworkers, RCU, IRQs, cpuidle transitions).  The slow
  // in-order Phi cores lose far more overall; the aggregate fraction
  // is calibrated against the compute-bound EP gains (~5% on PHI, ~1%
  // on 8XEON, Figs. 9/14), spread over frequent small events.
  c.noise_rate_hz = (m.name == "phi") ? 2000.0 : 800.0;
  c.noise_mean_ns = (m.name == "phi") ? 28'000 : 15'000;
  c.noise_cv = 1.0;
  c.timeslice_ns = 6 * sim::kMillisecond;
  c.alloc_base_ns = 3000;
  c.numa_aware_alloc = false;  // first-touch policy
  return c;
}

/// Nautilus HRT environment (paper §2.1): identity-mapped largest-size
/// pages, no faults, steered interrupts, buddy-per-zone allocation.
inline OsCosts nautilus_costs(const MachineConfig& m) {
  OsCosts c;
  c.personality = "nautilus";
  c.demand_paging = false;
  c.thp_2m_fraction = 0.0;
  c.mapped_page_size = PageSize::k1G;
  c.syscall_ns = 0;  // there are no syscalls in RTK: direct calls
  c.context_switch_ns = (m.name == "phi") ? 1100 : 400;
  c.thread_create_ns = (m.name == "phi") ? 6000 : 2500;
  c.wake_latency_ns = (m.name == "phi") ? 2500 : 900;
  c.wake_cv = 0.10;
  c.tick_period_ns = sim::kTimeNever;  // one-shot timer, no periodic tick
  c.tick_cost_ns = 0;
  c.noise_rate_hz = 0.0;
  c.noise_mean_ns = 0;
  c.timeslice_ns = sim::kTimeNever;  // cooperative kernel threads
  c.alloc_base_ns = 900;  // buddy allocator hit
  c.numa_aware_alloc = true;
  c.compute_inflation = 1.01;  // -mno-red-zone code generation
  return c;
}

}  // namespace kop::hw

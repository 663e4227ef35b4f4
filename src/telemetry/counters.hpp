#pragma once

// Per-CPU hardware/OS event-counter fabric.
//
// Every OS substrate (LinuxOs, NautilusKernel, PikOs) owns one
// CounterFabric; the hw and osal layers feed it as they charge costs, so
// an experiment's counters explain *why* its end-to-end time looks the
// way it does (paper §6.2: page faults, TLB misses, interrupts,
// competing-thread preemptions).
//
// This library depends on nothing but the standard library so any layer
// may link it.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace kop::telemetry {

enum class Counter : int {
  kPageFaults = 0,     // demand-paging minor faults taken while touching memory
  kTlbMisses,          // modelled TLB misses (walks charged by ExecModel)
  kTimerTicks,         // periodic timer interrupts delivered during compute
  kNoisePreemptions,   // OS-noise events (daemons, kworkers) stealing the CPU
  kCpuPreemptions,     // timeslice preemptions due to CPU oversubscription
  kContextSwitches,    // context switches charged (preemption + blocking wakes)
  kSyscalls,           // syscall-priced kernel crossings
  kIpis,               // inter-processor interrupts (kernel-mode remote wakes)
  kDeviceInterrupts,   // device IRQs delivered by the interrupt controller
  kFutexWaits,         // futex wait operations that actually slept
  kFutexWakes,         // futex wake operations
  kBlockingWakes,      // wait-queue wakes that had to unblock a sleeper
  kSpinWakes,          // wait-queue wakes satisfied while the waiter still spun
  kThreadsCreated,     // OS threads created
  kTaskSteals,         // tasks stolen across worker queues (komp + virgil + nk)
  kTaskStealsLocal,    // steals whose victim shares the thief's NUMA zone
  kTaskStealsRemote,   // steals that crossed a NUMA zone boundary
  kPageMigrations,     // slices re-homed by migration-on-next-touch
  kCount,
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kCount);

// Stable snake_case name used in JSON exports and tables.
const char* counter_name(Counter c);

// Aggregated copy of a fabric, safe to keep after the OS is gone.
struct Snapshot {
  std::array<std::uint64_t, kNumCounters> totals{};
  // per_cpu[cpu][counter]; events with no attributable CPU live only in
  // `totals`.
  std::vector<std::array<std::uint64_t, kNumCounters>> per_cpu;

  std::uint64_t total(Counter c) const {
    return totals[static_cast<int>(c)];
  }
  std::uint64_t on_cpu(int cpu, Counter c) const {
    return per_cpu[static_cast<std::size_t>(cpu)][static_cast<int>(c)];
  }
  /// Sum of the per-CPU attributions for one counter (the part of
  /// total() that names a CPU; the remainder is the unattributed
  /// bucket, which is never negative in a conserving fabric).
  std::uint64_t attributed(Counter c) const;
};

/// Counter conservation check: for every counter, the per-CPU
/// attributions must sum to at most the total (totals = per-CPU sums +
/// a non-negative unattributed bucket; a per-CPU sum exceeding its
/// total means an attribution was double-counted or a total was lost).
/// Returns one human-readable violation string per broken counter --
/// empty means the snapshot conserves.  This is the telemetry-side
/// invariant hook the propcheck harness asserts per random point.
std::vector<std::string> check_conservation(const Snapshot& snap);

class CounterFabric {
 public:
  explicit CounterFabric(int num_cpus);

  int num_cpus() const { return static_cast<int>(per_cpu_.size()); }

  // Attribute `delta` events to `cpu`. cpu < 0 (or out of range) records
  // into the unattributed bucket, which still contributes to totals.
  void add_on(int cpu, Counter c, std::uint64_t delta = 1);
  // Unattributed convenience.
  void add(Counter c, std::uint64_t delta = 1) { add_on(-1, c, delta); }

  std::uint64_t total(Counter c) const;
  std::uint64_t on_cpu(int cpu, Counter c) const;

  Snapshot snapshot() const;
  void reset();

 private:
  std::vector<std::array<std::uint64_t, kNumCounters>> per_cpu_;
  std::array<std::uint64_t, kNumCounters> unattributed_{};
};

}  // namespace kop::telemetry

// Memory regions and the address-translation cost model.
//
// A MemRegion stands for one logical allocation of a simulated program
// (e.g., one of a NAS benchmark's global arrays).  The OS substrate
// decides its page size, NUMA placement (possibly striped), and whether
// it is demand-paged; the execution engine then charges TLB-miss and
// page-fault time when work blocks touch it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/topology.hpp"
#include "sim/time.hpp"

namespace kop::hw {

enum class PageSize : std::uint64_t {
  k4K = 4ULL * 1024,
  k2M = 2ULL * 1024 * 1024,
  k1G = 1024ULL * 1024 * 1024,
};

constexpr std::uint64_t bytes_of(PageSize p) { return static_cast<std::uint64_t>(p); }

/// How a work block walks a region; drives the TLB model.
enum class AccessPattern {
  kStreaming,  // sequential sweep: ~1 TLB miss per page not covered
  kRandom,     // uniform random touches over the working set
  kBlocked,    // cache/TLB-blocked tiles: strong reuse, few misses
};

/// One logical allocation.  NUMA placement may be a single zone or a
/// per-slice assignment (first touch and next-touch migration produce
/// slices).
class MemRegion {
 public:
  MemRegion(std::string name, std::uint64_t bytes)
      : name_(std::move(name)), bytes_(bytes) {}

  const std::string& name() const { return name_; }
  std::uint64_t bytes() const { return bytes_; }

  PageSize page_size() const { return page_size_; }
  void set_page_size(PageSize p) { page_size_ = p; }

  /// Fraction of the region that ended up on 4K pages despite THP
  /// (Linux with `madvise` leaves unaligned heads/tails and
  /// fragmentation residue on small pages; identity-mapped kernels
  /// have none).
  double small_page_fraction() const { return small_page_fraction_; }
  void set_small_page_fraction(double f) { small_page_fraction_ = f; }

  bool demand_paged() const { return demand_paged_; }
  void set_demand_paged(bool v) { demand_paged_ = v; }

  /// Fraction of the region's pages that ended up on the *wrong* NUMA
  /// node despite the placement policy (khugepaged collapse, automatic
  /// NUMA balancing, reclaim).  Applied as a smooth mix into the
  /// access-latency multiplier; exact kernel allocators keep 0.
  double remote_mix() const { return remote_mix_; }
  void set_remote_mix(double m) { remote_mix_ = m; }

  /// Zone placement: single home zone, or -1 if sliced.
  int home_zone() const { return home_zone_; }
  void set_home_zone(int z) { home_zone_ = z; slice_zones_.clear(); }

  /// Striped placement: slice i of n covers bytes [i*B/n,(i+1)*B/n).
  void set_slice_zones(std::vector<int> zones) { slice_zones_ = std::move(zones); home_zone_ = -1; }
  const std::vector<int>& slice_zones() const { return slice_zones_; }
  /// Re-place slice `i` of a sliced region.
  void set_slice_zone(std::size_t i, int zone) { slice_zones_[i] = zone; home_zone_ = -1; }
  bool is_sliced() const { return !slice_zones_.empty(); }

  /// Zone holding the slice a CPU working on partition `part` of
  /// `nparts` equal partitions would touch.
  int zone_for_partition(int part, int nparts) const;

  /// --- demand-paging bookkeeping (reset per process run) ---
  std::uint64_t faulted_bytes() const { return faulted_bytes_; }
  /// Record that `bytes` previously-untouched bytes were touched;
  /// returns the number of *new pages* faulted in (0 if not demand
  /// paged or already fully resident).
  std::uint64_t touch_new(std::uint64_t bytes);
  void reset_faults() { faulted_bytes_ = 0; }

  /// --- migration-on-next-touch ---
  /// Arm the region: the next access to each slice re-homes it to the
  /// toucher's preferred DRAM zone (the OS substrate performs the
  /// re-homing when it resolves the toucher's zone).  Mirrors Solaris/
  /// ForestGOMP `madvise(MADV_ACCESS_LWP)`-style next-touch migration.
  void arm_next_touch() {
    next_touch_armed_ = true;
    next_touch_done_.clear();
  }
  void disarm_next_touch() { next_touch_armed_ = false; }
  bool next_touch_armed() const { return next_touch_armed_; }
  /// One-shot claim: true exactly once per slice while armed -- the
  /// caller then applies next-touch placement for that slice.  Each
  /// slice migrates at most once per arming (no ping-pong between
  /// touchers).
  bool next_touch_claim(int slice, int nslices);

  /// --- placement-quality bookkeeping (touch accounting) ---
  /// Record one resolved touch of a slice whose home was `zone` by a
  /// toucher preferring `preferred_zone`.
  void record_touch(int zone, int preferred_zone) {
    ++touches_;
    if (zone != preferred_zone) ++misplaced_touches_;
  }
  void reset_touch_stats() { touches_ = misplaced_touches_ = 0; }
  std::uint64_t touches() const { return touches_; }
  /// Fraction of recorded touches that landed on a remote zone
  /// (0 when nothing was recorded).
  double misplaced_fraction() const {
    return touches_ == 0 ? 0.0
                         : static_cast<double>(misplaced_touches_) /
                               static_cast<double>(touches_);
  }

 private:
  std::string name_;
  std::uint64_t bytes_;
  PageSize page_size_ = PageSize::k4K;
  double small_page_fraction_ = 0.0;
  double remote_mix_ = 0.0;
  bool demand_paged_ = false;
  int home_zone_ = 0;
  std::vector<int> slice_zones_;
  std::uint64_t faulted_bytes_ = 0;
  bool next_touch_armed_ = false;
  std::vector<std::uint8_t> next_touch_done_;
  std::uint64_t touches_ = 0;
  std::uint64_t misplaced_touches_ = 0;
};

/// Result of the translation model for one work block.
struct TranslationCost {
  double tlb_miss_rate = 0.0;  // misses per memory access
  sim::Time stall_per_access_ns = 0;
};

/// Estimate the TLB behaviour of touching a working set of
/// `working_set_bytes` from `region` with the given pattern on a
/// machine with `tlb` capacities.  The model:
///   reach = entries(page size) * page bytes (per page-size class)
///   covered = min(1, reach / working_set)
///   miss probability per access = (1 - covered) * pattern_factor
/// where pattern_factor reflects reuse (streaming ~ 64B/page per
/// access, random ~ full probability, blocked ~ heavy reuse).
TranslationCost translation_cost(const TlbConfig& tlb, const MemRegion& region,
                                 std::uint64_t working_set_bytes,
                                 AccessPattern pattern);

/// One contiguous chunk of simulated execution, produced by the
/// runtimes when they run application code.  The OS execution context
/// turns this into virtual time.
struct WorkBlock {
  /// Pure-compute time at nominal core speed with all data in cache.
  sim::Time cpu_ns = 0;
  /// Fraction of cpu_ns that is memory-bound (subject to NUMA and
  /// translation multipliers).
  double mem_fraction = 0.0;
  /// Bytes of `region` this block touches (drives fault accounting).
  std::uint64_t bytes_touched = 0;
  /// Per-thread working set during the block (drives TLB model).
  std::uint64_t working_set_bytes = 0;
  AccessPattern pattern = AccessPattern::kStreaming;
  MemRegion* region = nullptr;  // may be null for pure compute
};

}  // namespace kop::hw

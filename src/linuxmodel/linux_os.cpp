#include "linuxmodel/linux_os.hpp"

#include "hw/cost_params.hpp"

namespace kop::linuxmodel {

LinuxOs::LinuxOs(sim::Engine& engine, hw::MachineConfig machine)
    : LinuxOs(engine, machine, hw::linux_costs(machine)) {}

LinuxOs::LinuxOs(sim::Engine& engine, hw::MachineConfig machine,
                 hw::OsCosts costs)
    : Os(engine, std::move(machine), std::move(costs)) {
  futex_ = std::make_unique<FutexTable>(*this);
}

void LinuxOs::place_region(hw::MemRegion& region, osal::AllocPolicy policy) {
  // Anonymous memory: demand paged; THP=madvise backs most of a large
  // region with 2M pages but leaves a 4K residue (§2.2 testbed config).
  region.set_demand_paged(true);
  region.set_page_size(hw::PageSize::k2M);
  region.set_small_page_fraction(1.0 - costs_.thp_2m_fraction);
  // First touch is the *policy*, but on a busy multi-socket box a
  // slice of a large allocation ends up off-node anyway: khugepaged
  // collapses ranges wherever huge pages are free, automatic NUMA
  // balancing migrates pages mid-run, reclaim breaks locality.
  // Nautilus's per-zone buddy allocation has none of these (§6.2 gain
  // (c): "NUMA-cognizant memory allocations").
  int dram_zones = 0;
  for (const auto& z : machine_.zones)
    if (z.kind == hw::ZoneKind::kDram) ++dram_zones;
  region.set_remote_mix(dram_zones > 1 ? 0.28 : 0.0);

  using Kind = osal::AllocPolicy::Kind;
  switch (policy.kind) {
    case Kind::kZone:
      region.set_home_zone(policy.zone);  // numactl --membind
      break;
    case Kind::kLocal:
    case Kind::kFirstTouch:
      // Default Linux policy: placement deferred to first touch.
      defer_placement(region);
      break;
  }
}

}  // namespace kop::linuxmodel

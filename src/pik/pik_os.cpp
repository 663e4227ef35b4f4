#include "pik/pik_os.hpp"

#include "hw/cost_params.hpp"

namespace kop::pik {

hw::OsCosts pik_costs(const hw::MachineConfig& m) {
  hw::OsCosts c = hw::nautilus_costs(m);
  c.personality = "pik";
  // Same binary interface as Linux, but the "kernel" is a function in
  // the same address space at the same privilege (§4.3).
  c.syscall_ns = (m.name == "phi") ? 400 : 150;
  // futex is emulated in-kernel: a crossing plus a scheduler poke --
  // cheaper than Linux, pricier than RTK's direct call.
  c.wake_latency_ns = (m.name == "phi") ? 3600 : 1300;
  c.wake_cv = 0.12;  // §6.1: "considerably lower variation" than Linux
  c.thread_create_ns += c.syscall_ns;  // clone() crossing
  c.alloc_base_ns = 1400;              // mmap emulation over the buddy
  // The PIK binary is compiled *with* the red zone (§4.2: the kernel
  // uses an IST trampoline on interrupts instead of -mno-red-zone).
  c.compute_inflation = 1.0;
  return c;
}

PikOs::PikOs(sim::Engine& engine, hw::MachineConfig machine)
    : PikOs(engine, machine, pik_costs(machine)) {}

PikOs::PikOs(sim::Engine& engine, hw::MachineConfig machine, hw::OsCosts costs)
    : Os(engine, std::move(machine), std::move(costs)) {}

void PikOs::place_region(hw::MemRegion& region, osal::AllocPolicy policy) {
  // Emulated mmap: the kernel maps the pages immediately (no demand
  // paging -- §4.2's loader preallocates, and heap requests come
  // straight out of the buddy), but the address-space layout follows
  // the user binary's expectations: 2 MB mappings with a 4K residue.
  region.set_demand_paged(false);
  region.set_page_size(hw::PageSize::k2M);
  // The buddy hands out naturally aligned blocks, so nearly all of a
  // large request maps at 2 MB; only heads/tails stay 4K.
  region.set_small_page_fraction(0.10);

  using Kind = osal::AllocPolicy::Kind;
  switch (policy.kind) {
    case Kind::kZone:
      region.set_home_zone(policy.zone);
      break;
    case Kind::kLocal:
    case Kind::kFirstTouch:
      // The emulated mmap preserves Linux *semantics* -- physical
      // backing is assigned as threads first touch their slices (the
      // backing itself is a cheap buddy call, so no fault cost) -- and
      // the kernel places each slice exactly on the toucher's zone.
      defer_placement(region);
      break;
  }
}

}  // namespace kop::pik

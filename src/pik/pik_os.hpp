// The execution personality a PIK process sees: kernel-mode execution
// (no faults, no noise, steered interrupts) but through a user-level
// binary's lens -- services cross the emulated syscall interface, and
// memory keeps the user-level 2 MB-grained mapping layout the
// static-PIE image and emulated mmap produce (rather than RTK's 1 GB
// identity map), leaving a 4K residue.  That difference is why PIK
// recovers most, but not all, of RTK's translation benefits (paper
// Fig. 9 vs Fig. 10).
#pragma once

#include "osal/osal.hpp"

namespace kop::pik {

/// Cost sheet for PIK: kernel-grade wake/thread costs plus a cheap
/// same-privilege syscall crossing.
hw::OsCosts pik_costs(const hw::MachineConfig& m);

class PikOs final : public osal::Os {
 public:
  PikOs(sim::Engine& engine, hw::MachineConfig machine);
  PikOs(sim::Engine& engine, hw::MachineConfig machine, hw::OsCosts costs);

 protected:
  void place_region(hw::MemRegion& region, osal::AllocPolicy policy) override;
};

}  // namespace kop::pik

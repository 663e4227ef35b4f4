// The Linux-like substrate the user-level baseline runs on: demand
// paging with THP=madvise, first-touch NUMA, futexes, syscall costs,
// timer ticks and background noise (all via hw::linux_costs).
#pragma once

#include <memory>

#include "linuxmodel/futex.hpp"
#include "osal/osal.hpp"

namespace kop::linuxmodel {

class LinuxOs final : public osal::Os {
 public:
  LinuxOs(sim::Engine& engine, hw::MachineConfig machine);
  /// Variant with an explicit cost sheet (for ablations).
  LinuxOs(sim::Engine& engine, hw::MachineConfig machine, hw::OsCosts costs);

  FutexTable& futex() { return *futex_; }

 protected:
  void place_region(hw::MemRegion& region, osal::AllocPolicy policy) override;

 private:
  std::unique_ptr<FutexTable> futex_;
};

}  // namespace kop::linuxmodel

#include "nautilus/kernel.hpp"

#include <stdexcept>

#include "hw/cost_params.hpp"

namespace kop::nautilus {

namespace {
/// Simulated physical layout: zones stacked above 4 GB so the boot/MMIO
/// area below stays clear for BootLayout.
std::uint64_t zone_base(int zone_id, const hw::MachineConfig& m) {
  std::uint64_t base = 4ULL << 30;
  for (int z = 0; z < zone_id; ++z)
    base += m.zones[static_cast<std::size_t>(z)].bytes;
  return base;
}
}  // namespace

NautilusKernel::NautilusKernel(sim::Engine& engine, hw::MachineConfig machine,
                               NautilusConfig config)
    : NautilusKernel(engine, machine, config,
                     hw::nautilus_costs(machine)) {}

NautilusKernel::NautilusKernel(sim::Engine& engine, hw::MachineConfig machine,
                               NautilusConfig config, hw::OsCosts costs)
    : Os(engine, std::move(machine), std::move(costs)), config_(config) {
  zone_allocators_.reserve(machine_.zones.size());
  for (const auto& z : machine_.zones) {
    zone_allocators_.push_back(std::make_unique<BuddyAllocator>(
        zone_base(z.id, machine_), z.bytes, /*min_block=*/4096));
  }
  task_system_ = std::make_unique<osal::TaskQueues>(
      *this, osal::TaskQueues::kKernel, machine_.num_cpus);
  loader_ = std::make_unique<Loader>(*zone_allocators_.front());
  irq_ = std::make_unique<IrqController>(*this, fpu_);
  tls_ = std::make_unique<TlsSupport>(*zone_allocators_.front());
  if (config_.steer_interrupts) irq_->steer_all_to(0);
}

NautilusKernel::~NautilusKernel() = default;

BuddyAllocator& NautilusKernel::zone_allocator(int zone) {
  return *zone_allocators_.at(static_cast<std::size_t>(zone));
}

void NautilusKernel::place_region(hw::MemRegion& region,
                                  osal::AllocPolicy policy) {
  // Identity-mapped, largest-possible pages; everything mapped at boot,
  // no demand paging, no swap (§2.1).
  region.set_demand_paged(false);
  region.set_small_page_fraction(0.0);
  region.set_page_size(config_.first_touch_at_2mb ? hw::PageSize::k2M
                                                  : hw::PageSize::k1G);

  using Kind = osal::AllocPolicy::Kind;
  Kind kind = policy.kind;
  if (config_.first_touch_at_2mb && kind == Kind::kLocal) {
    // The §6.3 extension defers placement like Linux does.
    kind = Kind::kFirstTouch;
  }
  switch (kind) {
    case Kind::kZone:
      region.set_home_zone(policy.zone);
      break;
    case Kind::kLocal: {
      // Immediate allocation in the allocating CPU's preferred zone.
      int cpu = 0;
      if (engine_->current() != nullptr && current_thread() != nullptr)
        cpu = current_cpu();
      region.set_home_zone(machine_.preferred_dram_zone(cpu));
      break;
    }
    case Kind::kFirstTouch:
      defer_placement(region);
      break;
  }
}

void NautilusKernel::register_shell_command(const std::string& name,
                                            ShellCommand fn) {
  shell_[name] = std::move(fn);
}

bool NautilusKernel::has_shell_command(const std::string& name) const {
  return shell_.count(name) > 0;
}

int NautilusKernel::run_shell_command(const std::string& name,
                                      const std::vector<std::string>& args) {
  auto it = shell_.find(name);
  if (it == shell_.end())
    throw std::invalid_argument("nautilus shell: unknown command '" + name + "'");
  return it->second(args);
}

std::vector<std::string> NautilusKernel::shell_command_names() const {
  std::vector<std::string> names;
  names.reserve(shell_.size());
  for (const auto& [name, fn] : shell_) names.push_back(name);
  return names;
}

}  // namespace kop::nautilus

// BaseOs: the shared 90% of an Os implementation (thread plumbing over
// the sim engine, CPU occupancy, work charging, env vars).  The OS
// substrates subclass it and supply what actually differs: cost sheets
// and memory-placement policy -- plus their own distinctive subsystems
// (buddy allocator / task system / loader for Nautilus; paging, futexes
// and syscalls for the Linux model).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "hw/cpu.hpp"
#include "hw/exec_model.hpp"
#include "osal/osal.hpp"
#include "osal/tracer.hpp"

namespace kop::osal {

class BaseOs : public Os {
 public:
  BaseOs(sim::Engine& engine, hw::MachineConfig machine, hw::OsCosts costs);
  ~BaseOs() override;

  sim::Engine& engine() override { return *engine_; }
  const hw::MachineConfig& machine() const override { return machine_; }
  const hw::OsCosts& costs() const override { return costs_; }
  void rebind_costs(const hw::OsCosts& costs) override;

  telemetry::CounterFabric& counters() override { return counters_; }
  ompt::Registry& tools() override { return tools_; }

  Thread* spawn_thread(std::string name, std::function<void()> fn,
                       int cpu = -1, sim::Time create_cost_ns = -1) override;
  void join_thread(Thread* t) override;
  Thread* current_thread() override;
  int current_cpu() override;
  void yield() override;
  void sleep_ns(sim::Time ns) override;

  void compute(const hw::WorkBlock& block, int data_zone) override;
  void atomic_op(int contenders) override;

  hw::MemRegion* alloc_region(std::string name, std::uint64_t bytes,
                              AllocPolicy policy) override;
  void free_region(hw::MemRegion* region) override;
  int resolve_data_zone(hw::MemRegion* region, int part, int nparts) override;
  void set_next_touch_migration(bool on) override {
    next_touch_migration_ = on;
  }

  std::optional<std::string> get_env(const std::string& key) const override;
  void set_env(const std::string& key, std::string value) override;
  long sys_conf(SysConfKey key) const override;

  hw::Cpu& cpu(int id) { return *cpus_.at(static_cast<std::size_t>(id)); }
  const hw::ExecModel& exec_model() const { return exec_; }

  /// Per-CPU activity tracing (Chrome trace-event export); disabled by
  /// default, enable with tracer().enable().
  Tracer& tracer() { return tracer_; }

 protected:
  /// OS-specific placement: page size, demand paging, zone assignment.
  virtual void place_region(hw::MemRegion& region, AllocPolicy policy) = 0;

  /// Zone a deferred (first-touch) slice actually lands in when the
  /// toucher's preferred zone is `preferred`.  The kernels place
  /// exactly; the Linux model overrides this to scatter a fraction of
  /// slices remotely (automatic NUMA balancing, THP collapse and
  /// reclaim all perturb placement on real systems).
  virtual int first_touch_zone(int preferred) { return preferred; }

  /// Granularity of deferred (first-touch) zone assignment.
  static constexpr int kFirstTouchSlices = 64;

  /// Marks a region for first-touch assignment (all slices unassigned).
  static void defer_placement(hw::MemRegion& region);

  sim::Engine* engine_;
  hw::MachineConfig machine_;
  hw::OsCosts costs_;
  hw::ExecModel exec_;

 private:
  class ThreadImpl;

  ThreadImpl* current_impl();

  Tracer tracer_;
  telemetry::CounterFabric counters_;
  ompt::Registry tools_;
  std::vector<std::unique_ptr<hw::Cpu>> cpus_;
  std::vector<std::unique_ptr<ThreadImpl>> threads_;
  std::vector<std::unique_ptr<hw::MemRegion>> regions_;
  std::unordered_map<std::string, std::string> env_;
  int next_rr_cpu_ = 0;
  /// Arm regions allocated from now on for migration-on-next-touch.
  bool next_touch_migration_ = false;
};

}  // namespace kop::osal

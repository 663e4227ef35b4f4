#include "osal/osal.hpp"

#include <algorithm>
#include <stdexcept>

namespace kop::osal {

Os::Os(sim::Engine& engine, hw::MachineConfig machine, hw::OsCosts costs)
    : engine_(&engine),
      machine_(std::move(machine)),
      costs_(std::move(costs)),
      exec_(machine_, costs_),
      counters_(machine_.num_cpus) {
  machine_.validate();
  cpus_.reserve(static_cast<std::size_t>(machine_.num_cpus));
  for (int i = 0; i < machine_.num_cpus; ++i) {
    cpus_.push_back(std::make_unique<hw::Cpu>(
        *engine_, i, costs_.timeslice_ns, costs_.context_switch_ns,
        &counters_));
  }
}

Os::~Os() = default;

void Os::rebind_costs(const hw::OsCosts& costs) {
  if (costs.personality != costs_.personality)
    throw std::invalid_argument("rebind_costs: personality mismatch (" +
                                costs.personality + " vs " +
                                costs_.personality + ")");
  // costs_'s address is stable, so WaitQueues pointing at it see the
  // new sheet; the ExecModel and per-CPU scheduling copies are rebuilt.
  costs_ = costs;
  exec_ = hw::ExecModel(machine_, costs_);
  for (auto& cpu : cpus_)
    cpu->set_sched_costs(costs_.timeslice_ns, costs_.context_switch_ns);
}

Thread* Os::spawn_thread(std::string name, std::function<void()> fn, int cpu) {
  if (cpu < 0) {
    cpu = next_rr_cpu_;
    next_rr_cpu_ = (next_rr_cpu_ + 1) % machine_.num_cpus;
  }
  if (cpu >= machine_.num_cpus)
    throw std::out_of_range("spawn_thread: cpu out of range");

  // Creation cost is paid by the creator if we are inside the sim.
  if (engine_->current() != nullptr && costs_.thread_create_ns > 0)
    engine_->sleep_for(costs_.thread_create_ns);
  counters_.add_on(cpu, telemetry::Counter::kThreadsCreated);

  auto thread = std::make_unique<Thread>(std::move(name), cpu);
  Thread* raw = thread.get();
  auto body = [this, raw, fn = std::move(fn)]() {
    fn();
    raw->done_ = true;
    for (auto& tok : raw->joiners_) engine_->wake_token_at(tok, engine_->now());
    raw->joiners_.clear();
  };
  sim::SimThread* st = engine_->spawn(raw->name(), std::move(body));
  st->user_data = raw;
  threads_.push_back(std::move(thread));
  engine_->wake(st);
  return raw;
}

void Os::join_thread(Thread* t) {
  if (t->done_) return;
  t->joiners_.push_back(engine_->arm_wake_token());
  engine_->block();
}

Thread* Os::current_thread() {
  sim::SimThread* st = engine_->current();
  if (st == nullptr || st->user_data == nullptr) return nullptr;
  return static_cast<Thread*>(st->user_data);
}

int Os::current_cpu() {
  Thread* t = current_thread();
  if (t == nullptr)
    throw std::logic_error("current_cpu: not on an OS thread");
  return t->bound_cpu();
}

void Os::compute(const hw::WorkBlock& block, int data_zone) {
  const int cpu = current_cpu();
  const hw::BlockCharge charge = exec_.charge(block, cpu, data_zone, engine_->rng());
  using telemetry::Counter;
  if (charge.fault_count) counters_.add_on(cpu, Counter::kPageFaults, charge.fault_count);
  if (charge.tlb_misses) counters_.add_on(cpu, Counter::kTlbMisses, charge.tlb_misses);
  if (charge.tick_count) counters_.add_on(cpu, Counter::kTimerTicks, charge.tick_count);
  if (charge.noise_events) counters_.add_on(cpu, Counter::kNoisePreemptions, charge.noise_events);
  const sim::Time start = engine_->now();
  cpus_[static_cast<std::size_t>(cpu)]->occupy(charge.total());
  if (tracer_.enabled()) {
    tracer_.record(current_thread()->name(), cpu, start,
                   engine_->now() - start);
  }
}

void Os::atomic_op(int contenders) {
  // An uncontended RMW costs roughly one cacheline ownership transfer;
  // each additional contender serializes behind the line.
  const sim::Time cost =
      machine_.cacheline_transfer_ns * (1 + std::max(0, contenders));
  engine_->sleep_for(cost);
}

hw::MemRegion* Os::alloc_region(std::string name, std::uint64_t bytes,
                                AllocPolicy policy) {
  if (engine_->current() != nullptr) engine_->sleep_for(costs_.alloc_base_ns);
  auto region = std::make_unique<hw::MemRegion>(std::move(name), bytes);
  place_region(*region, policy);
  if (next_touch_migration_) region->arm_next_touch();
  hw::MemRegion* raw = region.get();
  regions_.push_back(std::move(region));
  return raw;
}

void Os::free_region(hw::MemRegion* region) {
  regions_.erase(
      std::remove_if(regions_.begin(), regions_.end(),
                     [&](const auto& r) { return r.get() == region; }),
      regions_.end());
}

void Os::defer_placement(hw::MemRegion& region) {
  region.set_slice_zones(std::vector<int>(kFirstTouchSlices, -1));
}

int Os::resolve_data_zone(hw::MemRegion* region, int part, int nparts) {
  if (region == nullptr) return -1;
  const int my_zone = machine_.zone_of_cpu(current_cpu());
  const int preferred = machine_.preferred_dram_zone(current_cpu());
  if (!region->is_sliced()) {
    if (!region->next_touch_armed()) {
      region->record_touch(region->home_zone(), preferred);
      return region->home_zone();
    }
    // Armed single-home region: expand to the standard slice map so
    // next-touch can re-home at slice granularity.
    region->set_slice_zones(
        std::vector<int>(kFirstTouchSlices, region->home_zone()));
  }
  // Place this partition's slices in the map itself, so a touch that
  // sleeps for a migration's copy below loses no slice another thread
  // placed meanwhile.
  const std::vector<int>& zones = region->slice_zones();
  const auto n = static_cast<int>(zones.size());
  const int lo = part * n / nparts;
  const int hi = std::min(std::max((part + 1) * n / nparts, lo + 1), n);
  std::uint64_t migrated = 0;
  for (int i = lo; i < hi; ++i) {
    const auto s = static_cast<std::size_t>(i);
    const int z = zones[s];
    if (region->next_touch_claim(i, n)) {
      // Next touch after arming: the slice is re-homed (or, if still
      // unplaced, placed) exactly on the toucher's preferred DRAM zone
      // -- migration is precise where scattered first touch is not.
      if (z >= 0 && z != preferred) ++migrated;
      if (z != preferred) region->set_slice_zone(s, preferred);
    } else if (z < 0) {
      // First touch: the slice lands in the toucher's zone.
      region->set_slice_zone(s, my_zone);
    }
  }
  if (migrated > 0) {
    counters_.add_on(current_cpu(), telemetry::Counter::kPageMigrations,
                     migrated);
    // Moving a slice costs a copy at the machine's memcpy bandwidth.
    const std::uint64_t slice_bytes =
        region->bytes() / static_cast<std::uint64_t>(n);
    if (engine_->current() != nullptr) {
      engine_->sleep_for(static_cast<sim::Time>(
          static_cast<double>(migrated * slice_bytes) /
          machine_.copy_bytes_per_ns));
    }
  }
  const int z = region->zone_for_partition(part, nparts);
  region->record_touch(z < 0 ? my_zone : z, preferred);
  return z < 0 ? my_zone : z;
}

std::optional<std::string> Os::get_env(const std::string& key) const {
  auto it = env_.find(key);
  if (it == env_.end()) return std::nullopt;
  return it->second;
}

void Os::set_env(const std::string& key, std::string value) {
  env_[key] = std::move(value);
}

long Os::sys_conf(SysConfKey key) const {
  switch (key) {
    case SysConfKey::kNumProcessors:
    case SysConfKey::kNumProcessorsConf:
      return machine_.num_cpus;
    case SysConfKey::kPageSize:
      return 4096;
  }
  return -1;
}

}  // namespace kop::osal

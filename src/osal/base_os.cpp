#include "osal/base_os.hpp"

#include <algorithm>
#include <stdexcept>

namespace kop::osal {

class BaseOs::ThreadImpl final : public Thread {
 public:
  ThreadImpl(std::string name, int cpu) : name_(std::move(name)), cpu_(cpu) {}

  const std::string& name() const override { return name_; }
  int bound_cpu() const override { return cpu_; }
  bool done() const override { return done_; }

  sim::SimThread* sim_thread = nullptr;
  bool done_ = false;
  std::vector<sim::WakeToken> joiners;

 private:
  std::string name_;
  int cpu_;
};

BaseOs::BaseOs(sim::Engine& engine, hw::MachineConfig machine, hw::OsCosts costs)
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

BaseOs::~BaseOs() = default;

void BaseOs::rebind_costs(const hw::OsCosts& costs) {
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

Thread* BaseOs::spawn_thread(std::string name, std::function<void()> fn,
                             int cpu, sim::Time create_cost_ns) {
  if (cpu < 0) {
    cpu = next_rr_cpu_;
    next_rr_cpu_ = (next_rr_cpu_ + 1) % machine_.num_cpus;
  }
  if (cpu >= machine_.num_cpus)
    throw std::out_of_range("spawn_thread: cpu out of range");

  // Creation cost is paid by the creator if we are inside the sim.
  const sim::Time create_cost =
      create_cost_ns >= 0 ? create_cost_ns : costs_.thread_create_ns;
  if (engine_->current() != nullptr && create_cost > 0)
    engine_->sleep_for(create_cost);
  counters_.add_on(cpu, telemetry::Counter::kThreadsCreated);

  auto impl = std::make_unique<ThreadImpl>(std::move(name), cpu);
  ThreadImpl* raw = impl.get();
  auto body = [this, raw, fn = std::move(fn)]() {
    fn();
    raw->done_ = true;
    for (auto& tok : raw->joiners) engine_->wake_token_at(tok, engine_->now());
    raw->joiners.clear();
  };
  raw->sim_thread = engine_->spawn(raw->name(), std::move(body));
  raw->sim_thread->user_data = raw;
  threads_.push_back(std::move(impl));
  engine_->wake(raw->sim_thread);
  return raw;
}

void BaseOs::join_thread(Thread* t) {
  auto* impl = static_cast<ThreadImpl*>(t);
  if (impl->done_) return;
  impl->joiners.push_back(engine_->arm_wake_token());
  engine_->block();
}

BaseOs::ThreadImpl* BaseOs::current_impl() {
  sim::SimThread* st = engine_->current();
  if (st == nullptr || st->user_data == nullptr) return nullptr;
  return static_cast<ThreadImpl*>(st->user_data);
}

Thread* BaseOs::current_thread() { return current_impl(); }

int BaseOs::current_cpu() {
  ThreadImpl* t = current_impl();
  if (t == nullptr)
    throw std::logic_error("current_cpu: not on an OS thread");
  return t->bound_cpu();
}

void BaseOs::yield() {
  // sched_yield-ish: a syscall plus requeue.
  if (costs_.syscall_ns > 0) {
    counters_.add_on(current_cpu(), telemetry::Counter::kSyscalls);
    engine_->sleep_for(costs_.syscall_ns);
  }
  engine_->yield_now();
}

void BaseOs::sleep_ns(sim::Time ns) { engine_->sleep_for(ns); }

void BaseOs::compute(const hw::WorkBlock& block, int data_zone) {
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

void BaseOs::atomic_op(int contenders) {
  // An uncontended RMW costs roughly one cacheline ownership transfer;
  // each additional contender serializes behind the line.
  const sim::Time cost =
      machine_.cacheline_transfer_ns * (1 + std::max(0, contenders));
  engine_->sleep_for(cost);
}

hw::MemRegion* BaseOs::alloc_region(std::string name, std::uint64_t bytes,
                                    AllocPolicy policy) {
  if (engine_->current() != nullptr) engine_->sleep_for(costs_.alloc_base_ns);
  auto region = std::make_unique<hw::MemRegion>(std::move(name), bytes);
  place_region(*region, policy);
  if (next_touch_migration_) region->arm_next_touch();
  hw::MemRegion* raw = region.get();
  regions_.push_back(std::move(region));
  return raw;
}

void BaseOs::free_region(hw::MemRegion* region) {
  regions_.erase(
      std::remove_if(regions_.begin(), regions_.end(),
                     [&](const auto& r) { return r.get() == region; }),
      regions_.end());
}

void BaseOs::defer_placement(hw::MemRegion& region) {
  region.set_slice_zones(std::vector<int>(kFirstTouchSlices, -1));
}

int BaseOs::resolve_data_zone(hw::MemRegion* region, int part, int nparts) {
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
  // First-touch: assign any still-unassigned slices in this partition's
  // range to the toucher's zone.
  const std::vector<int>& zones = region->slice_zones();
  const auto n = static_cast<int>(zones.size());
  const int lo = part * n / nparts;
  const int hi = std::min(std::max((part + 1) * n / nparts, lo + 1), n);
  if (!region->next_touch_armed()) {
    // Nothing migrates, so nothing sleeps: place slices in the map itself.
    for (int i = lo; i < hi; ++i) {
      if (zones[static_cast<std::size_t>(i)] < 0)
        region->set_slice_zone(static_cast<std::size_t>(i),
                               first_touch_zone(my_zone));
    }
  } else {
    // A migration sleeps for its copy, then stores the whole map as this
    // touch read it with its own slices re-placed: build that map aside.
    std::vector<int> next = zones;
    bool changed = false;
    std::uint64_t migrated = 0;
    for (int i = lo; i < hi; ++i) {
      auto& z = next[static_cast<std::size_t>(i)];
      if (region->next_touch_claim(i, n)) {
        // Next touch after arming: the slice is re-homed (or, if still
        // unplaced, placed) exactly on the toucher's preferred DRAM zone
        // -- migration is precise where scattered first touch is not.
        if (z >= 0 && z != preferred) ++migrated;
        if (z != preferred) changed = true;
        z = preferred;
      } else if (z < 0) {
        z = first_touch_zone(my_zone);
        changed = true;
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
    if (changed) region->set_slice_zones(std::move(next));
  }
  const int z = region->zone_for_partition(part, nparts);
  region->record_touch(z < 0 ? my_zone : z, preferred);
  return z < 0 ? my_zone : z;
}

std::optional<std::string> BaseOs::get_env(const std::string& key) const {
  auto it = env_.find(key);
  if (it == env_.end()) return std::nullopt;
  return it->second;
}

void BaseOs::set_env(const std::string& key, std::string value) {
  env_[key] = std::move(value);
}

long BaseOs::sys_conf(SysConfKey key) const {
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

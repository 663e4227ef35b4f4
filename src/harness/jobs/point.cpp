#include "harness/jobs/point.hpp"

#include <algorithm>
#include <cstdio>

#include "hw/cost_params.hpp"
#include "hw/topology.hpp"

namespace kop::harness::jobs {

namespace {

// All doubles in canonical forms print with %.17g so the serialization
// is exact (round-trips bit-for-bit) and stable across hosts.
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt(std::uint64_t v) { return std::to_string(v); }
std::string fmt(std::int64_t v) { return std::to_string(v); }
std::string fmt(int v) { return std::to_string(v); }
std::string fmt(bool v) { return v ? "1" : "0"; }

const char* epcc_part_name(EpccPart p) {
  switch (p) {
    case EpccPart::kSync:  return "sync";
    case EpccPart::kSched: return "sched";
    case EpccPart::kArray: return "array";
    case EpccPart::kTask:  return "task";
    case EpccPart::kAll:   return "all";
  }
  return "?";
}

void append_nas(std::string& out, const nas::BenchmarkSpec& b) {
  out += "|bench=" + b.name + "-" + b.clazz;
  out += "|timesteps=" + fmt(b.timesteps);
  out += "|serial_ns=" + fmt(b.serial_ns_per_step);
  out += "|static=" + fmt(b.static_bytes);
  for (const auto& r : b.regions) {
    out += "|region=" + r.name + ":" + fmt(r.bytes);
  }
  for (const auto& l : b.loops) {
    out += "|loop=" + l.name + "," + l.region + "," + fmt(l.trip) + "," +
           fmt(l.per_iter_ns) + "," + fmt(l.mem_fraction) + "," +
           fmt(l.bytes_per_iter) + "," + fmt(static_cast<int>(l.pattern)) +
           "," + fmt(l.skew) + "," + fmt(l.needs_object_privatization) + "," +
           komp::schedule_name(l.schedule) + "," + fmt(l.chunk);
  }
}

void append_epcc(std::string& out, EpccPart part, const epcc::EpccConfig& c) {
  out += "|part=" + std::string(epcc_part_name(part));
  out += "|reps=" + fmt(c.outer_reps);
  out += "|inner=" + fmt(c.inner_iters);
  out += "|delay=" + fmt(static_cast<std::int64_t>(c.delay_ns));
  out += "|mutex_delay=" + fmt(static_cast<std::int64_t>(c.mutex_delay_ns));
  out += "|sched_iters=" + fmt(c.sched_iters_per_thread);
  out += "|arrays=";
  for (std::size_t i = 0; i < c.array_sizes.size(); ++i) {
    if (i) out += ";";
    out += fmt(c.array_sizes[i]);
  }
  out += "|tasks=" + fmt(c.tasks_per_thread);
  out += "|depth=" + fmt(c.tree_depth);
}

void append_costs(std::string& out, const hw::OsCosts& c) {
  out += "|" + c.personality + "=";
  out += fmt(c.demand_paging) + "," +
         fmt(static_cast<std::int64_t>(c.minor_fault_ns)) + "," +
         fmt(c.thp_2m_fraction) + "," +
         fmt(static_cast<std::uint64_t>(c.mapped_page_size)) + "," +
         fmt(static_cast<std::int64_t>(c.syscall_ns)) + "," +
         fmt(static_cast<std::int64_t>(c.context_switch_ns)) + "," +
         fmt(static_cast<std::int64_t>(c.thread_create_ns)) + "," +
         fmt(static_cast<std::int64_t>(c.wake_latency_ns)) + "," +
         fmt(c.wake_cv) + "," +
         fmt(static_cast<std::int64_t>(c.tick_period_ns)) + "," +
         fmt(static_cast<std::int64_t>(c.tick_cost_ns)) + "," +
         fmt(c.noise_rate_hz) + "," +
         fmt(static_cast<std::int64_t>(c.noise_mean_ns)) + "," +
         fmt(c.noise_cv) + "," +
         fmt(static_cast<std::int64_t>(c.timeslice_ns)) + "," +
         fmt(c.competing_load) + "," +
         fmt(static_cast<std::int64_t>(c.alloc_base_ns)) + "," +
         fmt(c.numa_aware_alloc) + "," + fmt(c.compute_inflation);
}

void append_machine(std::string& out, const hw::MachineConfig& m) {
  out += "|machine=" + m.name + ":" + fmt(m.num_cpus) + "," +
         fmt(m.num_sockets) + "," + fmt(m.cores_per_socket) + "," +
         fmt(m.base_ghz) + "," + fmt(m.tlb.entries_4k) + "," +
         fmt(m.tlb.entries_2m) + "," + fmt(m.tlb.entries_1g) + "," +
         fmt(static_cast<std::int64_t>(m.tlb.miss_walk_ns)) + "," +
         fmt(static_cast<std::int64_t>(m.cacheline_transfer_ns)) + "," +
         fmt(static_cast<std::int64_t>(m.mem_latency_ns)) + "," +
         fmt(m.copy_bytes_per_ns) + "," + fmt(m.perf_factor);
  for (const auto& z : m.zones) {
    out += ";zone" + fmt(z.id) + "=" + fmt(static_cast<int>(z.kind)) + "," +
           fmt(z.bytes) + "," + fmt(static_cast<int>(z.cpus.size()));
  }
}

}  // namespace

std::string hex16(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t cost_model_fingerprint() {
  // Every input is compiled in, so the value is a process constant.
  static const std::uint64_t fingerprint = [] {
    std::string s = "kop-cost-model;rev=" + fmt(kModelRevision);
    for (const auto& m : {hw::phi(), hw::xeon8()}) {
      append_machine(s, m);
      append_costs(s, hw::linux_costs(m));
      append_costs(s, hw::nautilus_costs(m));
    }
    return fnv1a64(s);
  }();
  return fingerprint;
}

std::string PointSpec::canonical() const {
  std::string out = "point-v1";
  out += "|kind=";
  out += kind == Kind::kNas ? "nas" : "epcc";
  out += "|machine=" + machine;
  out += "|path=" + std::string(core::path_name(path));
  out += "|threads=" + fmt(threads);
  out += "|ft=";
  out += first_touch < 0 ? "auto" : fmt(first_touch);
  out += "|pte=" + fmt(rtk_use_pte);
  out += "|seed=" + fmt(seed);
  if (kind == Kind::kNas) {
    append_nas(out, nas);
  } else {
    append_epcc(out, epcc_part, epcc);
  }
  // NUMA knobs append only when non-default, so flat points keep their
  // historical canonical bytes (and cache identities) -- the same
  // append-when-present rule as cost_scales below.
  if (numa_sched_hier) out += "|numa=hier";
  if (numa_migrate) out += "|migrate=1";
  // Scale entries append only when present, so scale-free points keep
  // their historical canonical bytes (and cache identities).  The token
  // names when the scale binds -- right after boot, before the
  // workload runs -- because the key must say what was simulated.
  for (const auto& s : cost_scales) {
    out += "|boot_scale=" + s.key + ":" + fmt(s.scale);
  }
  return out;
}

std::uint64_t PointSpec::content_hash() const { return fnv1a64(canonical()); }

std::string PointSpec::label() const {
  std::string out = kind == Kind::kNas
                        ? nas.full_name()
                        : "epcc-" + std::string(epcc_part_name(epcc_part));
  out += " " + machine + "/" + core::path_name(path) + " t" + fmt(threads);
  if (numa_sched_hier) out += " hier";
  if (numa_migrate) out += " migrate";
  return out;
}

core::StackConfig PointSpec::stack_config() const {
  core::StackConfig cfg;
  cfg.machine = machine;
  cfg.path = path;
  cfg.num_threads = threads;
  cfg.seed = seed;
  cfg.rtk_use_pte = rtk_use_pte;
  cfg.nk_first_touch =
      first_touch < 0 ? want_first_touch(machine, threads) : first_touch != 0;
  if (numa_sched_hier) cfg.env.emplace_back("KOMP_NUMA_SCHED", "hier");
  cfg.numa_migrate = numa_migrate;
  return cfg;
}

double cost_estimate(const PointSpec& spec) {
  const double threads = spec.threads < 1 ? 1.0 : spec.threads;
  if (spec.kind == PointSpec::Kind::kNas) {
    // Host cost tracks simulated events: per-thread bookkeeping at
    // every worksharing construct of every timestep, plus the nominal
    // work the loops burn (scaled down so neither term drowns the
    // other on the paper's workloads).
    const double constructs =
        static_cast<double>(spec.nas.loops.size() + 1) * spec.nas.timesteps;
    return threads * constructs + spec.nas.base_work_ns() * 1e-6;
  }
  // Approximate measured-construct counts of each EPCC part.
  const double sync = 10.0, sched = 4.0, task = 5.0;
  const double array = 3.0 * static_cast<double>(spec.epcc.array_sizes.size());
  double constructs = 0.0;
  switch (spec.epcc_part) {
    case EpccPart::kSync:  constructs = sync; break;
    case EpccPart::kSched: constructs = sched; break;
    case EpccPart::kArray: constructs = array; break;
    case EpccPart::kTask:  constructs = task; break;
    case EpccPart::kAll:   constructs = sync + sched + array + task; break;
  }
  return threads * spec.epcc.outer_reps *
         (constructs * spec.epcc.inner_iters +
          spec.epcc.sched_iters_per_thread + spec.epcc.tasks_per_thread);
}

bool apply_point_scales(core::Stack& stack,
                        const std::vector<PointSpec::CostScale>& scales) {
  if (scales.empty()) return false;
  hw::OsCosts costs = stack.os().costs();
  const std::string prefix = costs.personality + ".";
  bool any = false;
  for (const auto& s : scales) {
    if (s.key.compare(0, prefix.size(), prefix) != 0) continue;
    hw::apply_cost_scale(costs, s.key.substr(prefix.size()), s.scale);
    any = true;
  }
  if (any) stack.os().rebind_costs(costs);
  return any;
}

PointResult run_point(const PointSpec& spec, const RunHooks& hooks) {
  PointResult result;
  const core::StackConfig cfg = spec.stack_config();
  RunHooks h = hooks;
  h.on_boot = [&spec, &hooks](core::Stack& stack) {
    apply_point_scales(stack, spec.cost_scales);
    if (hooks.on_boot) hooks.on_boot(stack);
  };
  if (spec.kind == PointSpec::Kind::kNas) {
    run_nas(cfg, spec.nas, &result.metrics, h);
  } else {
    result.epcc = run_epcc(cfg, spec.epcc_part, spec.epcc, &result.metrics, h);
  }
  return result;
}

std::size_t PointMatrix::add(PointSpec spec) {
  std::string key = spec.canonical();
  auto it = std::lower_bound(
      index_.begin(), index_.end(), key,
      [](const auto& e, const std::string& k) { return e.first < k; });
  if (it != index_.end() && it->first == key) return it->second;
  const std::size_t idx = points_.size();
  points_.push_back(std::move(spec));
  index_.insert(it, {std::move(key), idx});
  return idx;
}

}  // namespace kop::harness::jobs

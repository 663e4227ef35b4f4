// Declarative experiment points.
//
// Every figure/ablation in the evaluation is a matrix of fully
// independent simulation points -- one booted stack per (machine, path,
// benchmark-or-EPCC-part, thread count) tuple.  A PointSpec describes
// one such point declaratively: enough to (a) execute it on a fresh
// sim::Engine, (b) serialize it canonically, and (c) hash it for the
// content-addressed result cache.
//
// The layering of the job subsystem:
//
//   point.hpp   enumerate -- PointSpec + canonical form + content hash,
//               PointResult, run_point() (one spec -> one engine run)
//   runner.hpp  execute   -- JobRunner host-thread pool, retry,
//               deterministic result ordering
//   cache.hpp   cache     -- on-disk ResultCache keyed by
//               content hash (+) cost-model fingerprint (+) schema version
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/metrics.hpp"

namespace kop::harness::jobs {

/// FNV-1a 64-bit over a byte string (the content-hash primitive).
std::uint64_t fnv1a64(const std::string& bytes);

/// Zero-padded 16-digit lowercase hex -- the rendering used for cache
/// entry names, fingerprints, and coverage manifests.
std::string hex16(std::uint64_t v);

/// Revision of the simulation model's behaviour.  Any change that moves
/// a simulated result -- a new cost, a different steal walk, a reordered
/// wake -- bumps it, so every result cached under the old model stops
/// being found.  Cost constants need no bump: the fingerprint covers
/// them itself.
///
/// 3: a Linux run on a CPU nobody waits for sleeps to its end in one
/// event; the first waiter preempts it at the first slice boundary
/// strictly after its arrival, so one arriving exactly on a boundary is
/// noticed at the next (hw/cpu.hpp).
/// 4: a next-touch migration writes each slice it places into the
/// region's map at once, so slices other threads place while its copy
/// sleeps are no longer reverted (osal/os.cpp).
inline constexpr int kModelRevision = 4;

/// 64-bit fingerprint of the whole calibration surface: kModelRevision,
/// every field of hw::linux_costs()/hw::nautilus_costs() and the
/// cost-relevant machine parameters, for both evaluation platforms.
/// Changing any constant in hw/cost_params.hpp (or the topology cost
/// sheet) or bumping kModelRevision changes this value, which
/// invalidates every cached result.  Computed once per process.
std::uint64_t cost_model_fingerprint();

/// One simulation point of an experiment matrix.
struct PointSpec {
  enum class Kind { kNas, kEpcc };

  Kind kind = Kind::kNas;
  std::string machine = "phi";
  core::PathKind path = core::PathKind::kLinuxOmp;
  int threads = 1;
  /// First-touch-at-2MB: -1 = paper convention (want_first_touch),
  /// 0 = force off, 1 = force on (the §6.3 ablation forces both).
  int first_touch = -1;
  /// RTK: use the PTE pthread port (Fig. 2a ablation).
  bool rtk_use_pte = false;
  std::uint64_t seed = 42;
  /// Task-steal victim order: false = flat ring, true = hierarchical
  /// (topology-tree outward walk; KOMP_NUMA_SCHED=hier on the stack).
  bool numa_sched_hier = false;
  /// Arm app allocations for migration-on-next-touch placement.
  bool numa_migrate = false;

  /// kNas: the full (possibly scale_suite-adjusted) workload.  The
  /// canonical form covers every loop parameter, so two points at
  /// different --scale factors never alias in the cache.
  nas::BenchmarkSpec nas;

  /// kEpcc: which part and every suite knob.
  EpccPart epcc_part = EpccPart::kAll;
  epcc::EpccConfig epcc;

  /// One per-point cost-model scale: `key` is "<personality>.<field>"
  /// (hw/cost_params.hpp), applied to this point's stack right after
  /// boot, before the workload runs (apply_point_scales).  Keys whose
  /// personality does not match the booted sheet are skipped (a pik
  /// stack ignores "linux.*" scales).
  struct CostScale {
    std::string key;
    double scale = 1.0;
  };
  std::vector<CostScale> cost_scales;

  /// Canonical single-line serialization.  Stable across runs and
  /// hosts; the identity the cache and the deduplication map key on.
  /// Byte-identical to earlier schema versions when cost_scales is
  /// empty (scale entries append only when present).
  std::string canonical() const;
  /// FNV-1a 64 of canonical().
  std::uint64_t content_hash() const;

  /// Short human label for logs and error reports.
  std::string label() const;
  /// The stack configuration this point boots.
  core::StackConfig stack_config() const;
};

/// What running a point produces.  `epcc` is filled for kEpcc points
/// (the full per-construct measurement list, in suite order -- the
/// figure tables align measurement indices across paths).
struct PointResult {
  RunMetrics metrics;
  std::vector<epcc::Measurement> epcc;
  bool failed = false;
  std::string error;
  bool from_cache = false;
  /// Coord mode (--coord): another worker holds this point's lease or
  /// it is already complete; it was neither simulated nor loaded, and
  /// `metrics` is empty.
  bool skipped = false;
};

/// Execute one point on a freshly booted stack (blocking, this host
/// thread).  Exceptions from the simulation propagate to the caller;
/// the JobRunner turns them into failure capture + one retry.
/// spec.cost_scales bind right after boot; the caller's
/// `hooks.on_boot`, if any, runs after them.
PointResult run_point(const PointSpec& spec, const RunHooks& hooks = {});

/// Apply a point's cost scales to a booted stack before its workload
/// runs: scales whose personality prefix matches the stack's cost sheet
/// are applied to a copy of os().costs() and rebound atomically
/// (osal::Os::rebind_costs); the rest are skipped.  Returns true if any
/// scale applied.  Throws std::invalid_argument for an unknown field or
/// non-positive scale.
bool apply_point_scales(core::Stack& stack,
                        const std::vector<PointSpec::CostScale>& scales);

/// Rough relative host-side cost of simulating a point, in arbitrary
/// monotone units (threads x reps x constructs-style).  The JobRunner
/// dispatches longest-expected-first so big EPCC points at high thread
/// counts don't land last and stretch the parallel tail.
double cost_estimate(const PointSpec& spec);

/// A deduplicating, order-preserving set of points: the enumerate stage
/// of every figure builder.  add() returns the index of the point in
/// points() (existing index if an identical point was already added),
/// which is also the index of its result in JobRunner::run().
class PointMatrix {
 public:
  std::size_t add(PointSpec spec);
  const std::vector<PointSpec>& points() const { return points_; }
  std::size_t size() const { return points_.size(); }

 private:
  std::vector<PointSpec> points_;
  std::vector<std::pair<std::string, std::size_t>> index_;  // sorted
};

}  // namespace kop::harness::jobs

// The Edinburgh OpenMP Microbenchmark Suite (EPCC) re-implemented
// against komp (paper §2.2, Figs. 7/8/13).
//
// Methodology follows Bull et al.: each benchmark measures the time of
// `inner_iters` instances of a directive wrapping a known delay, over
// `outer_reps` samples; the reported overhead is the per-instance time
// minus the same delay measured without the directive (the
// "reference").  All times are virtual microseconds.
#pragma once

#include <string>
#include <vector>

#include "komp/runtime.hpp"
#include "sim/stats.hpp"

namespace kop::epcc {

struct EpccConfig {
  int outer_reps = 8;
  int inner_iters = 32;
  /// The delay executed inside each measured construct (EPCC's
  /// calibrated delaytime is on the order of a microsecond).
  sim::Time delay_ns = 1 * sim::kMicrosecond;
  /// Shorter delay for mutual-exclusion constructs (critical, lock,
  /// atomic, ordered), as in the EPCC sources.
  sim::Time mutex_delay_ns = 200;
  /// Iterations of each scheduling-overhead loop, per thread.
  int sched_iters_per_thread = 64;
  /// Array sizes (in doubles) for arraybench; EPCC sweeps powers of 3
  /// up to 59049.  Default: the biggest standard size (what Figs. 7/8
  /// plot).
  std::vector<std::uint64_t> array_sizes = {59049};
  /// Tasks per thread in taskbench.
  int tasks_per_thread = 16;
  /// Depth of the task trees.
  int tree_depth = 6;
};

struct Measurement {
  std::string group;  // SYNCH / SCHEDULE / ARRAY / TASK
  std::string name;   // e.g. "PARALLEL", "DYNAMIC_4"
  sim::Stats overhead_us;
  bool reference = false;
};

/// Runs the suite on an initialized runtime.  Must be called from the
/// application's main thread (inside Stack::run_omp_app).
class Suite {
 public:
  Suite(komp::Runtime& rt, EpccConfig config = {});

  std::vector<Measurement> run_syncbench();
  std::vector<Measurement> run_schedbench();
  std::vector<Measurement> run_arraybench();
  std::vector<Measurement> run_taskbench();
  std::vector<Measurement> run_all();

 private:
  /// Time one sample: `total_fn` runs the construct inner_iters times;
  /// records (elapsed/inner - per_construct_delay) in microseconds.
  void sample(Measurement& m, sim::Time per_construct_delay,
              const std::function<void()>& total_fn);
  Measurement make(const std::string& group, const std::string& name,
                   bool reference = false) const;
  double now_us() const;

  komp::Runtime* rt_;
  EpccConfig cfg_;
};

/// Pretty-print a measurement list as the figure rows.
std::string format_table(const std::string& title,
                         const std::vector<Measurement>& ms);

}  // namespace kop::epcc

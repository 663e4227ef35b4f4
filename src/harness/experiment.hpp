// Experiment drivers: one call = one booted stack running one
// benchmark at one configuration, returning virtual-time results.
// The bench/ binaries compose these into the paper's figures.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/stack.hpp"
#include "epcc/epcc.hpp"
#include "harness/metrics.hpp"
#include "nas/exec.hpp"

namespace kop::harness {

/// Optional observation hooks for one experiment run.  The drivers boot
/// the stack internally, so anything that wants to watch the run --
/// attach an OMPT tool, read engine stats or the dispatch digest after
/// the workload finished -- needs a window into the stack's lifetime.
/// `on_boot` fires right after Stack::create (before the app runs);
/// `on_done` fires after the app returned, while the stack is still
/// alive.  Used by harness/propcheck; normal callers pass nothing.
struct RunHooks {
  std::function<void(core::Stack&)> on_boot;
  std::function<void(core::Stack&)> on_done;
};

/// Run one NAS benchmark on a freshly booted stack.  If `metrics` is
/// non-null it is filled with the run's identity, timing, and the
/// stack's event-counter snapshot.
nas::RunResult run_nas(const core::StackConfig& config,
                       const nas::BenchmarkSpec& spec,
                       RunMetrics* metrics = nullptr,
                       const RunHooks& hooks = {});

/// Which EPCC component to run.
enum class EpccPart { kSync, kSched, kArray, kTask, kAll };

/// Run EPCC on a freshly booted stack (libomp paths only; CCK has no
/// OpenMP directives to measure, §6.1).
/// If `metrics` is non-null, also fills the counter snapshot and a
/// per-construct breakdown derived from the measurements.
std::vector<epcc::Measurement> run_epcc(const core::StackConfig& config,
                                        EpccPart part,
                                        const epcc::EpccConfig& ecfg = {},
                                        RunMetrics* metrics = nullptr,
                                        const RunHooks& hooks = {});

/// The paper's convention for 8XEON: Nautilus uses first-touch-at-2MB
/// for runs on more than one socket (§6.3).
bool want_first_touch(const std::string& machine, int threads);

/// CPU-count sweeps used by the figures.
std::vector<int> phi_scales();    // 1 2 4 8 16 32 64
std::vector<int> xeon_scales();   // 1 2 4 8 16 24 48 96 192

}  // namespace kop::harness

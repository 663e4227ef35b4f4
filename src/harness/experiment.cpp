#include "harness/experiment.hpp"

#include <algorithm>
#include <stdexcept>

namespace kop::harness {

namespace {

// Identity + counter snapshot shared by both drivers.
void fill_metrics(RunMetrics* m, core::Stack& stack,
                  const core::StackConfig& cfg, const std::string& label) {
  m->label = label;
  m->machine = cfg.machine;
  m->path = core::path_name(cfg.path);
  m->threads = cfg.num_threads > 0 ? cfg.num_threads
                                   : stack.os().machine().num_cpus;
  m->counters = stack.os().counters().snapshot();
}

}  // namespace

nas::RunResult run_nas(const core::StackConfig& config,
                       const nas::BenchmarkSpec& spec,
                       RunMetrics* metrics, const RunHooks& hooks) {
  core::StackConfig cfg = config;
  // RTK/CCK link the app's static data into the boot image (§3.1);
  // PIK and Linux have no such constraint.
  if (cfg.path == core::PathKind::kRtk ||
      cfg.path == core::PathKind::kAutoMpNautilus) {
    cfg.app_static_bytes = spec.static_bytes;
  }
  auto stack = core::Stack::create(cfg);
  if (hooks.on_boot) hooks.on_boot(*stack);

  nas::RunResult result;
  if (stack->is_omp_path()) {
    stack->run_omp_app([&](komp::Runtime& rt) {
      result = nas::run_openmp(rt, spec);
      return 0;
    });
  } else {
    stack->run_cck_app([&](osal::Os& os, virgil::Virgil& vg) {
      result = nas::run_automp(os, vg, spec);
      return 0;
    });
  }
  if (metrics != nullptr) {
    fill_metrics(metrics, *stack, cfg, spec.full_name());
    metrics->timed_seconds = result.timed_seconds;
    metrics->init_seconds = result.init_seconds;
  }
  if (hooks.on_done) hooks.on_done(*stack);
  return result;
}

std::vector<epcc::Measurement> run_epcc(const core::StackConfig& config,
                                        EpccPart part,
                                        const epcc::EpccConfig& ecfg,
                                        RunMetrics* metrics,
                                        const RunHooks& hooks) {
  auto stack = core::Stack::create(config);
  if (!stack->is_omp_path())
    throw std::invalid_argument(
        "EPCC measures OpenMP directives; CCK paths have none (§6.1)");
  if (hooks.on_boot) hooks.on_boot(*stack);
  std::vector<epcc::Measurement> out;
  stack->run_omp_app([&](komp::Runtime& rt) {
    epcc::Suite suite(rt, ecfg);
    switch (part) {
      case EpccPart::kSync: out = suite.run_syncbench(); break;
      case EpccPart::kSched: out = suite.run_schedbench(); break;
      case EpccPart::kArray: out = suite.run_arraybench(); break;
      case EpccPart::kTask: out = suite.run_taskbench(); break;
      case EpccPart::kAll: out = suite.run_all(); break;
    }
    return 0;
  });
  if (metrics != nullptr) {
    const char* labels[] = {"syncbench", "schedbench", "arraybench",
                            "taskbench", "epcc-all"};
    fill_metrics(metrics, *stack, config, labels[static_cast<int>(part)]);
    metrics->timed_seconds =
        static_cast<double>(stack->engine().now()) / 1e9;
    for (const auto& m : out) {
      ConstructStat stat;
      stat.count = m.overhead_us.count();
      // EPCC overheads can be slightly negative (construct faster than
      // the reference); clamp for the schema's non-negative fields.
      stat.mean_us = std::max(0.0, m.overhead_us.mean());
      stat.total_us = stat.mean_us * static_cast<double>(stat.count);
      metrics->constructs[m.group + "." + m.name] = stat;
    }
  }
  if (hooks.on_done) hooks.on_done(*stack);
  return out;
}

bool want_first_touch(const std::string& machine, int threads) {
  return machine == "8xeon" && threads > 24;
}

std::vector<int> phi_scales() { return {1, 2, 4, 8, 16, 32, 64}; }

std::vector<int> xeon_scales() { return {1, 2, 4, 8, 16, 24, 48, 96, 192}; }

}  // namespace kop::harness

#include "core/stack.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "hw/topology.hpp"
#include "komp/tuning.hpp"
#include "linuxmodel/linux_os.hpp"
#include "nautilus/kernel.hpp"
#include "nautilus/loader.hpp"
#include "pik/pik.hpp"
#include "rtk/rtk.hpp"

namespace kop::core {

const char* path_name(PathKind p) {
  switch (p) {
    case PathKind::kLinuxOmp: return "linux-omp";
    case PathKind::kRtk: return "rtk";
    case PathKind::kPik: return "pik";
    case PathKind::kAutoMpLinux: return "linux-automp";
    case PathKind::kAutoMpNautilus: return "nk-automp";
  }
  return "?";
}

namespace {

/// The Nautilus kernel core in a boot image: the compiled kernel, the
/// ported libomp and the pthread layer.
constexpr std::uint64_t kKernelCoreBytes = 48ULL << 20;

void apply_env(osal::Os& os, const StackConfig& config) {
  if (config.num_threads > 0)
    os.set_env("OMP_NUM_THREADS", std::to_string(config.num_threads));
  for (const auto& [k, v] : config.env) os.set_env(k, v);
  if (config.numa_migrate) os.set_next_touch_migration(true);
}

[[noreturn]] void wrong_path(const char* wanted, PathKind actual) {
  throw std::logic_error(std::string("Stack: ") + wanted +
                         " is not runnable on path " + path_name(actual));
}

/// Spawn `main` as thread "main" on CPU 0, drain the engine, and return
/// the exit code it produced.
int run_main(osal::Os& os, const std::function<int()>& main) {
  int code = -1;
  os.spawn_thread("main", [&]() { code = main(); }, /*cpu=*/0);
  os.engine().run();
  return code;
}

}  // namespace

Stack::Stack(const StackConfig& config) : config_(config) {
  const hw::MachineConfig machine = hw::machine_by_name(config_.machine);
  if (path() == PathKind::kRtk || path() == PathKind::kAutoMpNautilus) {
    // RTK and CCK link the app into the Nautilus boot image, so its
    // static data must clear the MMIO hole (§3.1, §6.2); checked before
    // anything "runs", like the link step that produces the image.
    nautilus::BootImage image;
    image.kernel_bytes = kKernelCoreBytes;
    image.app_static_bytes = config_.app_static_bytes;
    nautilus::BootLayout::check(machine, image);
  }

  engine_ = std::make_unique<sim::Engine>(config_.seed, config_.sched);
  if (config_.racecheck) engine_->enable_racecheck();

  switch (path()) {
    case PathKind::kLinuxOmp:
    case PathKind::kAutoMpLinux:
      os_ = std::make_unique<linuxmodel::LinuxOs>(*engine_, machine);
      if (path() == PathKind::kLinuxOmp)
        pthreads_ = std::make_unique<pthread_compat::Pthreads>(
            *os_, pthread_compat::linux_glibc_tuning());
      break;
    case PathKind::kRtk:
    case PathKind::kAutoMpNautilus: {
      nautilus::NautilusConfig kc;
      kc.first_touch_at_2mb = config_.nk_first_touch;
      auto kernel =
          std::make_unique<nautilus::NautilusKernel>(*engine_, machine, kc);
      kernel_ = kernel.get();
      os_ = std::move(kernel);
      if (path() == PathKind::kRtk)
        rtk_ = std::make_unique<rtk::RtkStack>(*kernel_, config_.rtk_use_pte);
      break;
    }
    case PathKind::kPik: {
      auto pik_os = std::make_unique<pik::PikOs>(*engine_, machine);
      pik_ = std::make_unique<pik::PikStack>(*pik_os, config_.app_static_bytes);
      os_ = std::move(pik_os);
      break;
    }
  }
  apply_env(*os_, config_);
}

Stack::~Stack() = default;

std::unique_ptr<Stack> Stack::create(const StackConfig& config) {
  return std::unique_ptr<Stack>(new Stack(config));
}

int Stack::run_omp_app(OmpApp app) {
  switch (path()) {
    case PathKind::kLinuxOmp:
      return run_main(*os_, [&]() {
        komp::Runtime runtime(*pthreads_, komp::linux_libomp_tuning());
        return app(runtime);
      });
    case PathKind::kRtk:
      return rtk_->run_app(std::move(app));
    case PathKind::kPik:
      return pik_->run_app("app", std::move(app));
    case PathKind::kAutoMpLinux:
    case PathKind::kAutoMpNautilus:
      break;
  }
  wrong_path("OmpApp", path());
}

int Stack::run_cck_app(CckApp app) {
  if (is_omp_path()) wrong_path("CckApp", path());
  const int cpus = os_->machine().num_cpus;
  const int width =
      config_.num_threads > 0 ? std::min(config_.num_threads, cpus) : cpus;
  return run_main(*os_, [&]() {
    // Kernel VIRGIL is the kernel's own task system; user VIRGIL is a
    // pool of `width` lanes on the Linux model, alive for this run.
    std::optional<osal::TaskQueues> user;
    virgil::Virgil& vg =
        kernel_ != nullptr
            ? kernel_->task_system()
            : user.emplace(*os_, osal::TaskQueues::kUser, width);
    vg.start(width);
    const int code = app(*os_, vg);
    vg.stop();
    return code;
  });
}

}  // namespace kop::core

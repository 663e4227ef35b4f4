#include "core/stack.hpp"

#include <stdexcept>

#include "hw/topology.hpp"
#include "komp/tuning.hpp"
#include "linuxmodel/linux_os.hpp"
#include "nautilus/kernel.hpp"
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

void apply_env(osal::Os& os, const StackConfig& config) {
  if (config.num_threads > 0)
    os.set_env("OMP_NUM_THREADS", std::to_string(config.num_threads));
  for (const auto& [k, v] : config.env) os.set_env(k, v);
  if (config.numa_migrate) os.set_next_touch_migration(true);
}

int effective_width(const StackConfig& config, const hw::MachineConfig& m) {
  return config.num_threads > 0 ? std::min(config.num_threads, m.num_cpus)
                                : m.num_cpus;
}

[[noreturn]] void wrong_path(const char* wanted, PathKind actual) {
  throw std::logic_error(std::string("Stack: ") + wanted +
                         " is not runnable on path " + path_name(actual));
}

class LinuxOmpStack final : public Stack {
 public:
  explicit LinuxOmpStack(StackConfig config)
      : config_(std::move(config)),
        machine_(hw::machine_by_name(config_.machine)),
        engine_(config_.seed, config_.sched),
        os_(engine_, machine_),
        pthreads_(os_, pthread_compat::linux_glibc_tuning()) {
    if (config_.racecheck) engine_.enable_racecheck();
    apply_env(os_, config_);
  }

  PathKind path() const override { return PathKind::kLinuxOmp; }
  sim::Engine& engine() override { return engine_; }
  osal::Os& os() override { return os_; }
  const StackConfig& config() const override { return config_; }

  int run_omp_app(OmpApp app) override {
    int code = -1;
    os_.spawn_thread(
        "main",
        [this, app = std::move(app), &code]() {
          komp::Runtime runtime(pthreads_, komp::linux_libomp_tuning());
          code = app(runtime);
        },
        /*cpu=*/0);
    engine_.run();
    return code;
  }

  int run_cck_app(CckApp) override { wrong_path("CckApp", path()); }

 private:
  StackConfig config_;
  hw::MachineConfig machine_;
  sim::Engine engine_;
  linuxmodel::LinuxOs os_;
  pthread_compat::Pthreads pthreads_;
};

class RtkPathStack final : public Stack {
 public:
  explicit RtkPathStack(StackConfig config) : config_(std::move(config)) {
    rtk::RtkOptions opts;
    opts.machine = hw::machine_by_name(config_.machine);
    opts.kernel_config.first_touch_at_2mb = config_.nk_first_touch;
    opts.use_pte_pthreads = config_.rtk_use_pte;
    opts.seed = config_.seed;
    opts.sched = config_.sched;
    opts.racecheck = config_.racecheck;
    opts.app_static_bytes = config_.app_static_bytes;
    impl_ = std::make_unique<rtk::RtkStack>(std::move(opts));
    apply_env(impl_->kernel(), config_);
  }

  PathKind path() const override { return PathKind::kRtk; }
  sim::Engine& engine() override { return impl_->engine(); }
  osal::Os& os() override { return impl_->kernel(); }
  const StackConfig& config() const override { return config_; }

  int run_omp_app(OmpApp app) override { return impl_->run_app(std::move(app)); }
  int run_cck_app(CckApp) override { wrong_path("CckApp", path()); }

  rtk::RtkStack& rtk() { return *impl_; }

 private:
  StackConfig config_;
  std::unique_ptr<rtk::RtkStack> impl_;
};

class PikPathStack final : public Stack {
 public:
  explicit PikPathStack(StackConfig config) : config_(std::move(config)) {
    pik::PikOptions opts;
    opts.machine = hw::machine_by_name(config_.machine);
    opts.seed = config_.seed;
    opts.sched = config_.sched;
    opts.racecheck = config_.racecheck;
    opts.app_static_bytes = config_.app_static_bytes;
    impl_ = std::make_unique<pik::PikStack>(std::move(opts));
    apply_env(impl_->os(), config_);
  }

  PathKind path() const override { return PathKind::kPik; }
  sim::Engine& engine() override { return impl_->engine(); }
  osal::Os& os() override { return impl_->os(); }
  const StackConfig& config() const override { return config_; }

  int run_omp_app(OmpApp app) override {
    return impl_->run_app("app", std::move(app));
  }
  int run_cck_app(CckApp) override { wrong_path("CckApp", path()); }

  pik::PikStack& pik() { return *impl_; }

 private:
  StackConfig config_;
  std::unique_ptr<pik::PikStack> impl_;
};

class AutoMpLinuxStack final : public Stack {
 public:
  explicit AutoMpLinuxStack(StackConfig config)
      : config_(std::move(config)),
        machine_(hw::machine_by_name(config_.machine)),
        engine_(config_.seed, config_.sched),
        os_(engine_, machine_) {
    if (config_.racecheck) engine_.enable_racecheck();
    apply_env(os_, config_);
  }

  PathKind path() const override { return PathKind::kAutoMpLinux; }
  sim::Engine& engine() override { return engine_; }
  osal::Os& os() override { return os_; }
  const StackConfig& config() const override { return config_; }

  int run_omp_app(OmpApp) override { wrong_path("OmpApp", path()); }

  int run_cck_app(CckApp app) override {
    const int width = effective_width(config_, machine_);
    int code = -1;
    os_.spawn_thread(
        "main",
        [this, width, app = std::move(app), &code]() {
          osal::TaskQueues vg(os_, osal::TaskQueues::kUser, width);
          vg.start();
          code = app(os_, vg);
          vg.stop();
        },
        /*cpu=*/0);
    engine_.run();
    return code;
  }

 private:
  StackConfig config_;
  hw::MachineConfig machine_;
  sim::Engine engine_;
  linuxmodel::LinuxOs os_;
};

class AutoMpNautilusStack final : public Stack {
 public:
  explicit AutoMpNautilusStack(StackConfig config)
      : config_(std::move(config)),
        machine_(hw::machine_by_name(config_.machine)) {
    // CCK links the app into the boot image like RTK does: same
    // MMIO-overlap constraint (§6.2).
    nautilus::BootImage image;
    image.kernel_bytes = 48ULL << 20;
    image.app_static_bytes = config_.app_static_bytes;
    nautilus::BootLayout::check(machine_, image);

    engine_ = std::make_unique<sim::Engine>(config_.seed, config_.sched);
    if (config_.racecheck) engine_->enable_racecheck();
    nautilus::NautilusConfig kc;
    kc.first_touch_at_2mb = config_.nk_first_touch;
    kernel_ = std::make_unique<nautilus::NautilusKernel>(*engine_, machine_, kc);
    apply_env(*kernel_, config_);
  }

  PathKind path() const override { return PathKind::kAutoMpNautilus; }
  sim::Engine& engine() override { return *engine_; }
  osal::Os& os() override { return *kernel_; }
  const StackConfig& config() const override { return config_; }

  int run_omp_app(OmpApp) override { wrong_path("OmpApp", path()); }

  int run_cck_app(CckApp app) override {
    const int width = effective_width(config_, machine_);
    int code = -1;
    kernel_->spawn_thread(
        "main",
        [this, width, app = std::move(app), &code]() {
          kernel_->task_system().start(width);
          code = app(*kernel_, kernel_->task_system());
          kernel_->task_system().stop();
        },
        /*cpu=*/0);
    engine_->run();
    return code;
  }

 private:
  StackConfig config_;
  hw::MachineConfig machine_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<nautilus::NautilusKernel> kernel_;
};

}  // namespace

std::unique_ptr<Stack> Stack::create(const StackConfig& config) {
  switch (config.path) {
    case PathKind::kLinuxOmp:
      return std::make_unique<LinuxOmpStack>(config);
    case PathKind::kRtk:
      return std::make_unique<RtkPathStack>(config);
    case PathKind::kPik:
      return std::make_unique<PikPathStack>(config);
    case PathKind::kAutoMpLinux:
      return std::make_unique<AutoMpLinuxStack>(config);
    case PathKind::kAutoMpNautilus:
      return std::make_unique<AutoMpNautilusStack>(config);
  }
  throw std::invalid_argument("Stack::create: unknown path");
}

}  // namespace kop::core

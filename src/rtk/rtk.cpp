#include "rtk/rtk.hpp"

#include "komp/tuning.hpp"

namespace kop::rtk {

RtkStack::RtkStack(nautilus::NautilusKernel& kernel, bool use_pte_pthreads)
    : kernel_(&kernel),
      use_pte_pthreads_(use_pte_pthreads),
      pthreads_(kernel, use_pte_pthreads
                            ? pthread_compat::nautilus_pte_tuning()
                            : pthread_compat::nautilus_native_tuning()) {}

void RtkStack::register_app(const std::string& name, AppMain app) {
  apps_[name] = std::move(app);
  kernel_->register_shell_command(name, [this, name](
                                            const std::vector<std::string>&) {
    // The shell command runs on a kernel thread; the OpenMP runtime
    // lives exactly as long as the application (it is part of the
    // kernel image but its thread pool belongs to the app run).
    komp::RuntimeTuning tuning = komp::rtk_libomp_tuning();
    if (use_pte_pthreads_) {
      // The ported libomp suspends and wakes through the pthread
      // layer; the PTE port's per-call indirection (Fig. 2a) therefore
      // lands on every runtime primitive.
      const sim::Time extra =
          pthread_compat::nautilus_pte_tuning().op_overhead_ns -
          pthread_compat::nautilus_native_tuning().op_overhead_ns;
      tuning.barrier_step_extra_ns += extra;
      tuning.fork_per_thread_ns += extra;
      tuning.dispatch_next_ns += extra / 2;
      tuning.single_ns += extra;
      tuning.task_spawn_ns += extra;
      tuning.task_exec_ns += extra / 2;
      tuning.reduction_leaf_ns += extra;
    }
    komp::Runtime runtime(pthreads_, tuning);
    return apps_.at(name)(runtime);
  });
}

int RtkStack::run_shell(const std::string& name) {
  int exit_code = -1;
  kernel_->spawn_thread(
      "shell:" + name,
      [this, name, &exit_code]() {
        exit_code = kernel_->run_shell_command(name);
      },
      /*cpu=*/0);
  kernel_->engine().run();
  return exit_code;
}

int RtkStack::run_app(AppMain app) {
  register_app("app", std::move(app));
  return run_shell("app");
}

}  // namespace kop::rtk

// Runtime-in-kernel (RTK, paper §3): the OpenMP runtime and the
// application are linked *into* the Nautilus boot image.  main()
// becomes a shell command; libomp runs over the pthread compatibility
// layer; there are no syscalls -- every service is a function call
// into the kernel.
//
// RtkStack runs that world over a booted NautilusKernel:
//   Pthreads (PTE port or customized) -> komp::Runtime (rtk tuning) ->
//   application shell command
// The §3.1/§6.2 build-time constraint -- the boot image (kernel +
// statically linked application data) must not overlap MMIO, which is
// what forces class-B inputs or dynamic allocation for benchmarks with
// gigabyte-size globals -- is checked where the kernel is booted
// (core::Stack).
#pragma once

#include <functional>
#include <map>
#include <string>

#include "komp/runtime.hpp"
#include "nautilus/kernel.hpp"
#include "pthread_compat/pthreads.hpp"

namespace kop::rtk {

class RtkStack {
 public:
  /// libomp over `kernel`'s pthread layer: the PTE port (Fig. 2a) or
  /// the customized one (Fig. 2b).
  RtkStack(nautilus::NautilusKernel& kernel, bool use_pte_pthreads);

  RtkStack(const RtkStack&) = delete;
  RtkStack& operator=(const RtkStack&) = delete;

  pthread_compat::Pthreads& pthreads() { return pthreads_; }

  /// The application entry point, converted to a shell command (§3.1).
  /// The komp runtime is brought up on the command's kernel thread and
  /// torn down when it returns.
  using AppMain = std::function<int(komp::Runtime&)>;
  void register_app(const std::string& name, AppMain app);

  /// Run a registered app to completion (drains the engine) and return
  /// its exit code.
  int run_shell(const std::string& name);

  /// Convenience: register + run an anonymous app.
  int run_app(AppMain app);

 private:
  nautilus::NautilusKernel* kernel_;
  bool use_pte_pthreads_;
  pthread_compat::Pthreads pthreads_;
  std::map<std::string, AppMain> apps_;
};

}  // namespace kop::rtk

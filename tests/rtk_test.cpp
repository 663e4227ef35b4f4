// Tests for the RTK path: shell launch, OpenMP-in-kernel execution,
// pthread flavor selection, and dynamic allocation as the way around
// the boot-image constraint.
#include <gtest/gtest.h>

#include "core/stack.hpp"
#include "rtk/rtk.hpp"

namespace kop::rtk {
namespace {

/// RTK on a PHI Nautilus kernel (engine seed 42).
struct RtkWorld {
  explicit RtkWorld(bool use_pte_pthreads = false)
      : stack(kernel, use_pte_pthreads) {}
  sim::Engine engine{42};
  nautilus::NautilusKernel kernel{engine, hw::phi()};
  RtkStack stack;
};

TEST(Rtk, BootsAndRunsOmpApp) {
  RtkWorld w;
  int team = 0;
  const int code = w.stack.run_app([&](komp::Runtime& rt) {
    rt.parallel(8, [&](komp::TeamThread& tt) {
      if (tt.id() == 0) team = tt.nthreads();
      tt.compute_ns(1000);
    });
    return 5;
  });
  EXPECT_EQ(code, 5);
  EXPECT_EQ(team, 8);
}

TEST(Rtk, MainBecomesShellCommand) {
  RtkWorld w;
  w.stack.register_app("nas-bt", [](komp::Runtime&) { return 3; });
  EXPECT_TRUE(w.kernel.has_shell_command("nas-bt"));
  EXPECT_EQ(w.stack.run_shell("nas-bt"), 3);
}

TEST(Rtk, DynamicAllocationAvoidsTheOverlap) {
  // §6.2: converting static arrays to startup-time dynamic allocation
  // shrinks the boot image.
  core::StackConfig cfg;
  cfg.path = core::PathKind::kRtk;
  cfg.app_static_bytes = 0;  // moved to malloc at app start
  auto stack = core::Stack::create(cfg);
  bool allocated = false;
  stack->run_omp_app([&](komp::Runtime& rt) {
    auto* r = rt.os().alloc_region("u", 3400ULL << 20,
                                   osal::AllocPolicy::local());
    allocated = r != nullptr;
    rt.os().free_region(r);
    return 0;
  });
  EXPECT_TRUE(allocated);
}

TEST(Rtk, UsesRtkTuningAndKernelEnvironment) {
  RtkWorld w;
  w.kernel.set_env("OMP_NUM_THREADS", "4");
  int team = 0;
  bool tuning_is_rtk = false;
  w.stack.run_app([&](komp::Runtime& rt) {
    team = rt.max_threads();
    tuning_is_rtk = rt.tuning().barrier_step_extra_ns > 0;
    return 0;
  });
  EXPECT_EQ(team, 4);
  EXPECT_TRUE(tuning_is_rtk);
}

TEST(Rtk, PteFlavorSelectable) {
  RtkWorld pte(/*use_pte_pthreads=*/true);
  EXPECT_EQ(pte.stack.pthreads().tuning().flavor, "nautilus-pte");
  RtkWorld native;
  EXPECT_EQ(native.stack.pthreads().tuning().flavor, "nautilus-native");
}

TEST(Rtk, OpenMpUsableFromSecondShellCommand) {
  // RTK's distinctive property: *any* kernel code can use OpenMP, not
  // just the app (§3, Fig. 6 "applies to all code in kernel").
  RtkWorld w;
  w.stack.register_app("kernel-worker", [](komp::Runtime& rt) {
    int sum = 0;
    rt.parallel(4, [&](komp::TeamThread& tt) {
      tt.critical("sum", [&] { sum += tt.id(); });
    });
    return sum;
  });
  EXPECT_EQ(w.stack.run_shell("kernel-worker"), 0 + 1 + 2 + 3);
}

}  // namespace
}  // namespace kop::rtk

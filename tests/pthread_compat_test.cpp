// Tests for the pthreads compatibility layer and its three flavors
// (glibc-on-Linux, PTE port, customized native -- Fig. 2a vs 2b).
#include <gtest/gtest.h>

#include "linuxmodel/linux_os.hpp"
#include "nautilus/kernel.hpp"
#include "pthread_compat/pthreads.hpp"

namespace kop::pthread_compat {
namespace {

TEST(Pthreads, CreateJoinReturnsValue) {
  sim::Engine eng(1);
  nautilus::NautilusKernel nk(eng, hw::phi());
  Pthreads pt(nk, nautilus_native_tuning());
  int result = 0;
  nk.spawn_thread(
      "main",
      [&] {
        int arg = 20;
        PthreadAttr attr;
        attr.bound_cpu = 3;
        Pthread* t = pt.create(
            &attr,
            [](void* a) -> void* {
              *static_cast<int*>(a) += 22;
              return a;
            },
            &arg);
        void* rv = pt.join(t);
        result = *static_cast<int*>(rv);
      },
      0);
  eng.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(pt.threads_created(), 1u);
}

TEST(Pthreads, PtePortIsSlowerThanNative) {
  // Fig. 2a vs 2b: the layered PTE port pays per-call indirection that
  // the customized implementation avoids.  Each create and each join is
  // one call, and nothing else differs between the two runs.
  auto run_with = [](Pthreads::Tuning tuning) {
    sim::Engine eng(5);
    nautilus::NautilusKernel nk(eng, hw::phi());
    Pthreads pt(nk, tuning);
    sim::Time elapsed = 0;
    nk.spawn_thread(
        "main",
        [&] {
          const sim::Time t0 = eng.now();
          for (int i = 0; i < 100; ++i) {
            Pthread* t = pt.create(
                nullptr, [](void*) -> void* { return nullptr; }, nullptr);
            pt.join(t);
          }
          elapsed = eng.now() - t0;
        },
        0);
    eng.run();
    return elapsed;
  };
  const sim::Time pte = run_with(nautilus_pte_tuning());
  const sim::Time native = run_with(nautilus_native_tuning());
  EXPECT_EQ(pte - native, 200 * (420 - 60));
}

TEST(Pthreads, OnThreadCreateHookFires) {
  sim::Engine eng(6);
  linuxmodel::LinuxOs os(eng, hw::phi());
  auto tuning = linux_glibc_tuning();
  int hook_calls = 0;
  tuning.on_thread_create = [&] { ++hook_calls; };
  Pthreads pt(os, tuning);
  os.spawn_thread(
      "main",
      [&] {
        Pthread* t = pt.create(nullptr, [](void*) -> void* { return nullptr; },
                               nullptr);
        pt.join(t);
      },
      0);
  eng.run();
  EXPECT_EQ(hook_calls, 1);
}

}  // namespace
}  // namespace kop::pthread_compat

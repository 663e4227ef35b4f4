// Tests for core::Stack: every path boots and runs a pinned app to the
// same simulated end state, and only the paths that link the app into
// the Nautilus boot image check it against the MMIO hole.
#include <gtest/gtest.h>

#include "core/stack.hpp"
#include "nautilus/loader.hpp"

namespace kop::core {
namespace {

StackConfig phi_config(PathKind path) {
  StackConfig cfg;
  cfg.machine = "phi";
  cfg.path = path;
  cfg.num_threads = 4;
  cfg.seed = 42;
  return cfg;
}

/// One region: a dynamic,2 loop of 1 us iterations, a barrier, eight
/// 5 us tasks from the master, and a sum reduction of the iterations.
int omp_app(komp::Runtime& rt, int& tasks_run) {
  double sum = 0;
  rt.parallel([&](komp::TeamThread& tt) {
    double mine = 0;
    tt.for_loop(
        komp::Schedule::kDynamic, 2, 0, 64,
        [&](std::int64_t b, std::int64_t e) {
          tt.compute_ns(1000 * (e - b));
          mine += static_cast<double>(e - b);
        },
        /*nowait=*/true);
    tt.barrier();
    tt.master([&] {
      for (int i = 0; i < 8; ++i)
        tt.task([&](komp::TeamThread& t) {
          t.compute_ns(5000);
          ++tasks_run;
        });
    });
    const double total = tt.reduce(mine, komp::ReduceOp::kSum);
    tt.master([&] { sum = total; });
  });
  return static_cast<int>(sum);
}

/// Sixteen 5 us tasks on VIRGIL, joined by a CountdownLatch.
int cck_app(osal::Os& os, virgil::Virgil& vg) {
  int done = 0;
  virgil::CountdownLatch latch(os, 16);
  for (int i = 0; i < 16; ++i)
    vg.submit([&] {
      os.compute_ns(5000);
      ++done;
      latch.count_down();
    });
  latch.wait();
  return done;
}

struct Pinned {
  PathKind path;
  sim::Time now;
  std::uint64_t events;
  std::uint64_t digest;
  std::uint64_t threads;
};

TEST(Stack, EveryPathRunsAsPinned) {
  // Each path's end state; a moved construction or spawn order changes
  // the digest.
  const Pinned pinned[] = {
      {PathKind::kLinuxOmp, 191396, 263, 0x24d32682373bb432ULL, 4},
      {PathKind::kRtk, 79418, 261, 0x2d6e0c38adb8f2e8ULL, 4},
      {PathKind::kPik, 8871530, 279, 0xc6ba9fe2452874f8ULL, 4},
      {PathKind::kAutoMpLinux, 254735, 238, 0x02510080871bd282ULL, 5},
      {PathKind::kAutoMpNautilus, 84988, 1154, 0x3e190a20132e3c46ULL, 5},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(path_name(p.path));
    auto stack = Stack::create(phi_config(p.path));
    if (stack->is_omp_path()) {
      int tasks_run = 0;
      EXPECT_EQ(stack->run_omp_app([&](komp::Runtime& rt) {
        return omp_app(rt, tasks_run);
      }),
                64);
      EXPECT_EQ(tasks_run, 8);
    } else {
      EXPECT_EQ(stack->run_cck_app(cck_app), 16);
    }
    const auto& stats = stack->engine().stats();
    EXPECT_EQ(stack->engine().now(), p.now);
    EXPECT_EQ(stats.events_dispatched, p.events);
    EXPECT_EQ(stats.dispatch_digest, p.digest);
    EXPECT_EQ(stats.threads_spawned, p.threads);
  }
}

TEST(Stack, BootImageOverlapsOnlyOnKernelImagePaths) {
  // Class-C gigabyte globals: RTK and CCK-on-Nautilus link them into
  // the boot image, which then overlaps MMIO (§6.2); the Linux paths
  // and PIK's loader place them anywhere.
  for (PathKind path :
       {PathKind::kLinuxOmp, PathKind::kRtk, PathKind::kPik,
        PathKind::kAutoMpLinux, PathKind::kAutoMpNautilus}) {
    SCOPED_TRACE(path_name(path));
    StackConfig cfg = phi_config(path);
    cfg.app_static_bytes = 3400ULL << 20;
    if (path == PathKind::kRtk || path == PathKind::kAutoMpNautilus)
      EXPECT_THROW(Stack::create(cfg), nautilus::BootOverlapError);
    else
      EXPECT_NE(Stack::create(cfg), nullptr);
  }
}

}  // namespace
}  // namespace kop::core

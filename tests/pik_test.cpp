// Tests for the PIK path: loader flow, pre-start emulation, syscall
// table semantics (stub-first, /proc/self, futex, mmap), app runs.
#include <gtest/gtest.h>

#include "pik/gang.hpp"
#include "pik/pik.hpp"

namespace kop::pik {
namespace {

/// A PIK process world on PHI (engine seed 42).
struct PikWorld {
  explicit PikWorld(std::uint64_t app_static_bytes = 64ULL << 20)
      : stack(os, app_static_bytes) {}
  sim::Engine engine{42};
  PikOs os{engine, hw::phi()};
  PikStack stack;
};

TEST(Syscalls, UnimplementedReturnsEnosysAndIsRecorded) {
  sim::Engine eng(1);
  PikOs os(eng, hw::phi());
  SyscallTable table(os);
  const auto r = table.invoke(9999);
  EXPECT_EQ(r.rv, kEnosys);
  EXPECT_EQ(table.total_calls(), 1u);
  ASSERT_EQ(table.unimplemented_seen().size(), 1u);
  EXPECT_EQ(table.unimplemented_seen()[0], 9999);
}

TEST(Syscalls, ImplementReplacesStub) {
  sim::Engine eng(2);
  PikOs os(eng, hw::phi());
  SyscallTable table(os);
  EXPECT_FALSE(table.is_implemented(Sys::kGetpid));
  table.implement(Sys::kGetpid,
                  [](const SyscallArgs&) { return SyscallResult{1234, {}}; });
  EXPECT_TRUE(table.is_implemented(Sys::kGetpid));
  EXPECT_EQ(table.invoke(Sys::kGetpid).rv, 1234);
  EXPECT_EQ(table.calls(Sys::kGetpid), 1u);
}

TEST(Pik, RunsAppAndReturnsExitCode) {
  PikWorld w;
  int team = 0;
  const int code = w.stack.run_app("hello", [&](komp::Runtime& rt) {
    rt.parallel(8, [&](komp::TeamThread& tt) {
      if (tt.id() == 0) team = tt.nthreads();
    });
    return 9;
  });
  EXPECT_EQ(code, 9);
  EXPECT_EQ(team, 8);
  EXPECT_TRUE(w.stack.process()->exited);
}

TEST(Pik, PrestartCompletesLinuxIllusion) {
  PikWorld w;
  w.stack.run_app("app", [](komp::Runtime&) { return 0; });
  const auto& sys = w.stack.syscalls();
  EXPECT_TRUE(w.stack.process()->prestart_complete);
  // The C-runtime startup sequence went through the emulated calls.
  EXPECT_GE(sys.calls(Sys::kArchPrctl), 1u);       // FSBASE for TLS
  EXPECT_GE(sys.calls(Sys::kSetTidAddress), 1u);
  EXPECT_GE(sys.calls(Sys::kMmap), 1u);
  EXPECT_GE(sys.calls(Sys::kSchedGetaffinity), 1u);  // libomp topology
  EXPECT_GE(sys.calls(Sys::kOpenat), 1u);            // /proc/self
  EXPECT_GE(sys.calls(Sys::kExitGroup), 1u);
}

TEST(Pik, ProcSelfIsTheOnlyVirtualFs) {
  PikWorld w;
  w.stack.run_app("app", [&](komp::Runtime&) {
    auto& sys = w.stack.syscalls();
    SyscallArgs a;
    a.path = "/proc/self/status";
    const auto fd = sys.invoke(Sys::kOpenat, a);
    EXPECT_GE(fd.rv, 3);
    SyscallArgs r;
    r.arg[0] = static_cast<std::uint64_t>(fd.rv);
    r.arg[2] = 4096;
    const auto data = sys.invoke(Sys::kRead, r);
    EXPECT_NE(data.data.find("Threads:"), std::string::npos);
    SyscallArgs c;
    c.arg[0] = static_cast<std::uint64_t>(fd.rv);
    EXPECT_EQ(sys.invoke(Sys::kClose, c).rv, 0);

    // /dev, /sys, /proc/cpuinfo: not implemented (§4.3).
    SyscallArgs bad;
    bad.path = "/proc/cpuinfo";
    EXPECT_EQ(sys.invoke(Sys::kOpenat, bad).rv, kEnoent);
    bad.path = "/dev/null";
    EXPECT_EQ(sys.invoke(Sys::kOpenat, bad).rv, kEnoent);
    return 0;
  });
}

TEST(Pik, MmapMunmapRoundTrip) {
  PikWorld w;
  w.stack.run_app("app", [&](komp::Runtime&) {
    auto& sys = w.stack.syscalls();
    SyscallArgs a;
    a.arg[1] = 16ULL << 20;
    const auto addr = sys.invoke(Sys::kMmap, a);
    EXPECT_GT(addr.rv, 0);
    SyscallArgs u;
    u.arg[0] = static_cast<std::uint64_t>(addr.rv);
    EXPECT_EQ(sys.invoke(Sys::kMunmap, u).rv, 0);
    EXPECT_EQ(sys.invoke(Sys::kMunmap, u).rv, kEinval);  // double unmap
    return 0;
  });
}

TEST(Pik, WriteGoesToConsole) {
  PikWorld w;
  w.stack.run_app("app", [&](komp::Runtime&) {
    SyscallArgs a;
    a.arg[0] = 1;
    a.data = "NAS BT-B: verification ok\n";
    w.stack.syscalls().invoke(Sys::kWrite, a);
    return 0;
  });
  EXPECT_NE(w.stack.console().find("verification ok"), std::string::npos);
}

TEST(Pik, CloneTrafficFromThreadCreation) {
  PikWorld w;
  w.os.set_env("OMP_NUM_THREADS", "8");
  w.stack.run_app("app", [&](komp::Runtime& rt) {
    rt.parallel([&](komp::TeamThread& tt) { tt.compute_ns(100); });
    return 0;
  });
  // 7 workers cloned through the emulated interface.
  EXPECT_GE(w.stack.syscalls().calls(Sys::kClone), 7u);
}

TEST(Pik, LoaderRejectsNonPieApp) {
  PikWorld w;
  auto img = default_app_image("bad", 1 << 20);
  img.position_independent = false;  // forgot -fPIE
  EXPECT_THROW(w.stack.run_app("bad", img, [](komp::Runtime&) { return 0; }),
               nautilus::LoaderError);
}

TEST(Pik, ImageFoldsInUserLibraries) {
  const auto img = default_app_image("nas-ft", 640ULL << 20);
  EXPECT_TRUE(img.statically_linked);
  EXPECT_TRUE(img.position_independent);
  // "the footprint of a PIK executable is very large compared to a
  // typical kernel module" (§7).
  EXPECT_GT(img.memory_bytes(), 640ULL << 20);
  bool has_libomp = false;
  for (const auto& lib : img.linked_libs) has_libomp |= lib == "libomp.a";
  EXPECT_TRUE(has_libomp);
}

TEST(Pik, GigabyteStaticsAreFine) {
  // PIK has no boot-image problem (§6.2): the loader places the image
  // anywhere in physical memory.
  PikWorld w(3400ULL << 20);
  EXPECT_EQ(w.stack.run_app("big", [](komp::Runtime&) { return 0; }), 0);
}

TEST(PikPlacement, LocalRegionIsMappedAtOnceAndPlacedOnFirstTouch) {
  sim::Engine eng(5);
  PikOs os(eng, hw::phi());
  hw::MemRegion* r =
      os.alloc_region("heap", 1ULL << 30, osal::AllocPolicy::local());
  // The emulated mmap maps at once out of the buddy, on 2 MB pages
  // with a 4K residue at the block heads and tails.
  EXPECT_FALSE(r->demand_paged());
  EXPECT_EQ(r->page_size(), hw::PageSize::k2M);
  EXPECT_DOUBLE_EQ(r->small_page_fraction(), 0.10);
  // Zones are assigned slice by slice as CPUs first touch them.
  ASSERT_TRUE(r->is_sliced());
  EXPECT_EQ(r->zone_for_partition(1, 4), -1);
  int zone = -1;
  os.spawn_thread(
      "t", [&] { zone = os.resolve_data_zone(r, 1, 4); }, 5);
  eng.run();
  EXPECT_EQ(zone, os.machine().zone_of_cpu(5));
  EXPECT_EQ(r->zone_for_partition(1, 4), zone);
  EXPECT_EQ(r->zone_for_partition(0, 4), -1);  // still untouched
}

TEST(PikPlacement, InZoneBindsTheRegion) {
  sim::Engine eng(6);
  PikOs os(eng, hw::phi());
  // Zone 1 is MCDRAM, a zone no CPU prefers.
  hw::MemRegion* r =
      os.alloc_region("hbm", 1ULL << 20, osal::AllocPolicy::in_zone(1));
  EXPECT_FALSE(r->is_sliced());
  EXPECT_EQ(r->home_zone(), 1);
  int zone = -1;
  os.spawn_thread(
      "t", [&] { zone = os.resolve_data_zone(r, 0, 1); }, 5);
  eng.run();
  EXPECT_EQ(zone, 1);
}

TEST(PikCosts, SitBetweenLinuxAndRtk) {
  const auto m = hw::phi();
  const auto linux = hw::linux_costs(m);
  const auto nk = hw::nautilus_costs(m);
  const auto pk = pik_costs(m);
  EXPECT_GT(pk.syscall_ns, nk.syscall_ns);
  EXPECT_LT(pk.syscall_ns, linux.syscall_ns);
  EXPECT_LT(pk.wake_latency_ns, linux.wake_latency_ns);
  EXPECT_LT(pk.wake_cv, linux.wake_cv);  // the low-jitter property
  EXPECT_EQ(pk.noise_rate_hz, 0.0);
}

}  // namespace
}  // namespace kop::pik

// Appended coverage: gang scheduling of process thread groups (§4.2).
namespace kop::pik {
namespace {

double barrier_heavy_runtime(GangScheduler::Policy policy) {
  sim::Engine engine(17);
  PikOs os(engine, hw::phi());
  GangScheduler gang(os, policy, /*groups=*/2);
  // One 8-thread gang (group 0) doing compute+barrier rounds while a
  // second group shares the CPUs.
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  osal::Barrier barrier(os, kThreads);
  sim::Time done_at = 0;
  for (int t = 0; t < kThreads; ++t) {
    os.spawn_thread(
        "gang0-" + std::to_string(t),
        [&, t] {
          for (int r = 0; r < kRounds; ++r) {
            gang.compute(/*group=*/0, /*cpu=*/t, 500 * sim::kMicrosecond);
            barrier.arrive_and_wait();
          }
          done_at = std::max(done_at, engine.now());
        },
        t);
  }
  engine.run();
  return sim::to_seconds(done_at);
}

TEST(Gang, ActiveWindowsAlternate) {
  sim::Engine engine(1);
  PikOs os(engine, hw::phi());
  GangScheduler gang(os, GangScheduler::Policy::kGang, 2,
                     sim::kMillisecond);
  EXPECT_TRUE(gang.active(0, 0, 0));
  EXPECT_FALSE(gang.active(1, 0, 0));
  EXPECT_FALSE(gang.active(0, 0, sim::kMillisecond));
  EXPECT_TRUE(gang.active(1, 0, sim::kMillisecond));
  // Gang policy: all CPUs agree at every instant.
  for (int cpu = 0; cpu < 8; ++cpu)
    EXPECT_TRUE(gang.active(0, cpu, 100));
  EXPECT_EQ(gang.time_to_active(1, 0, 0), sim::kMillisecond);
}

TEST(Gang, UncoordinatedCpusDephase) {
  sim::Engine engine(2);
  PikOs os(engine, hw::phi());
  GangScheduler gang(os, GangScheduler::Policy::kUncoordinated, 2,
                     sim::kMillisecond);
  int active_cpus = 0;
  for (int cpu = 0; cpu < 8; ++cpu)
    if (gang.active(0, cpu, 100)) ++active_cpus;
  EXPECT_GT(active_cpus, 0);
  EXPECT_LT(active_cpus, 8);  // some CPUs run the other group
}

TEST(Gang, GangSchedulingBeatsUncoordinatedOnBarriers) {
  const double gang_s = barrier_heavy_runtime(GangScheduler::Policy::kGang);
  const double unco_s =
      barrier_heavy_runtime(GangScheduler::Policy::kUncoordinated);
  // The gang gets exactly its share (2 groups -> ~2x serial); the
  // dephased version loses additional time at every barrier.
  EXPECT_LT(gang_s * 1.2, unco_s);
}

TEST(Gang, WorkConservesAcrossWindows) {
  sim::Engine engine(3);
  PikOs os(engine, hw::phi());
  GangScheduler gang(os, GangScheduler::Policy::kGang, 2,
                     sim::kMillisecond);
  sim::Time busy = 0;
  os.spawn_thread(
      "t",
      [&] {
        gang.compute(0, 0, 5 * sim::kMillisecond);
        busy = os.cpu(0).busy_time();
      },
      0);
  engine.run();
  // All 5ms of work executed (crossing ~5 inactive windows).
  EXPECT_GE(busy, 5 * sim::kMillisecond);
  EXPECT_GE(engine.now(), 9 * sim::kMillisecond);  // ~2x with 2 groups
}

TEST(Gang, RejectsBadConfig) {
  sim::Engine engine(4);
  PikOs os(engine, hw::phi());
  EXPECT_THROW(GangScheduler(os, GangScheduler::Policy::kGang, 0),
               std::invalid_argument);
  EXPECT_THROW(GangScheduler(os, GangScheduler::Policy::kGang, 2, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace kop::pik

// Unit tests for machine topology, the topology tree, the translation/fault cost model,
// the execution model, and the CPU resource.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hw/cost_params.hpp"
#include "hw/cpu.hpp"
#include "hw/exec_model.hpp"
#include "hw/memory.hpp"
#include "hw/topo_tree.hpp"
#include "hw/topology.hpp"
#include "linuxmodel/linux_os.hpp"

namespace kop::hw {
namespace {

TEST(Topology, PhiShape) {
  const MachineConfig m = phi();
  EXPECT_EQ(m.num_cpus, 64);
  EXPECT_EQ(m.zones.size(), 2u);
  EXPECT_EQ(m.zones[1].kind, ZoneKind::kMcdram);
  EXPECT_TRUE(m.zones[1].cpus.empty());
  // Every CPU prefers DRAM (flat-mode MCDRAM is distant).
  EXPECT_EQ(m.preferred_dram_zone(0), 0);
  EXPECT_EQ(m.preferred_dram_zone(63), 0);
}

TEST(Topology, Xeon8Shape) {
  const MachineConfig m = xeon8();
  EXPECT_EQ(m.num_cpus, 192);
  EXPECT_EQ(m.num_sockets, 8);
  EXPECT_EQ(m.zones.size(), 8u);
  EXPECT_EQ(m.zone_of_cpu(0), 0);
  EXPECT_EQ(m.zone_of_cpu(191), 7);
  EXPECT_EQ(m.distance(0, 0), 10);
  EXPECT_EQ(m.distance(0, 7), 21);
  EXPECT_DOUBLE_EQ(m.numa_penalty(0, 7), 2.1);
}

TEST(Topology, ByNameAndValidation) {
  EXPECT_EQ(machine_by_name("phi").name, "phi");
  EXPECT_EQ(machine_by_name("8xeon").name, "8xeon");
  EXPECT_THROW(machine_by_name("cray"), std::invalid_argument);

  MachineConfig bad = phi();
  bad.zones[0].cpus.pop_back();  // cpu 63 now uncovered
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(Topology, AsymmetricDistanceMatrixRejected) {
  // ACPI SLIT matrices are symmetric; a lopsided hand-edited one must
  // not survive validate() (TopoTree sorts victims by these rows).
  MachineConfig bad = xeon8();
  bad.zone_distance[2][5] = 17;  // [5][2] still 21
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.zone_distance[5][2] = 17;  // symmetric again
  EXPECT_NO_THROW(bad.validate());
}

TEST(TopoTreeTest, PhiMcdramZoneHasNoCpus) {
  // CPU-less zones (flat-mode MCDRAM) exist in the tree but own no
  // CPUs, so no steal order or team shard ever maps onto them.
  const TopoTree tree(phi());
  EXPECT_EQ(tree.num_zones(), 2);
  EXPECT_EQ(tree.num_cpus(), 64);
  EXPECT_EQ(tree.cpus_of_zone(0).size(), 64u);
  EXPECT_TRUE(tree.cpus_of_zone(1).empty());
  for (int cpu = 0; cpu < 64; ++cpu) EXPECT_EQ(tree.zone_of_cpu(cpu), 0);
  // The distance walk from the DRAM zone still lists MCDRAM last.
  EXPECT_EQ(tree.zones_by_distance(0), (std::vector<int>{0, 1}));
  EXPECT_EQ(tree.zones_by_distance(1), (std::vector<int>{1, 0}));
}

TEST(TopoTreeTest, Xeon8ZoneOrderIsSelfThenDistanceThenId) {
  const TopoTree tree(xeon8());
  EXPECT_EQ(tree.num_zones(), 8);
  for (int z = 0; z < 8; ++z) {
    const auto& order = tree.zones_by_distance(z);
    ASSERT_EQ(order.size(), 8u);
    EXPECT_EQ(order[0], z);  // self first, even with uniform distances
    // Remote zones all sit at distance 21, so the tiebreak is zone id.
    std::vector<int> rest(order.begin() + 1, order.end());
    EXPECT_TRUE(std::is_sorted(rest.begin(), rest.end()));
  }
  EXPECT_EQ(tree.cpus_of_zone(3).front(), 72);
  EXPECT_EQ(tree.cpus_of_zone(3).back(), 95);
  EXPECT_EQ(tree.zone_of_cpu(95), 3);
}

TEST(TopoTreeTest, RejectsInvalidMachine) {
  // The tree re-validates on construction: asymmetric SLIT rows would
  // produce a nonsensical victim order.
  MachineConfig bad = xeon8();
  bad.zone_distance[0][1] = 11;
  EXPECT_THROW(TopoTree{bad}, std::invalid_argument);
}

TEST(Memory, TouchNewCountsPagesOnce) {
  MemRegion r("r", 10ULL << 20);
  r.set_demand_paged(true);
  r.set_page_size(PageSize::k4K);
  const std::uint64_t first = r.touch_new(1ULL << 20);
  EXPECT_EQ(first, (1ULL << 20) / 4096);
  // Touching the same span again faults nothing new.
  EXPECT_EQ(r.faulted_bytes(), 1ULL << 20);
  const std::uint64_t again = r.touch_new(1ULL << 20);
  EXPECT_EQ(r.faulted_bytes(), 2ULL << 20);
  EXPECT_EQ(again, first);
  r.reset_faults();
  EXPECT_EQ(r.faulted_bytes(), 0u);
}

TEST(Memory, NotDemandPagedNeverFaults) {
  MemRegion r("r", 1ULL << 20);
  EXPECT_EQ(r.touch_new(1ULL << 20), 0u);
}

TEST(Memory, TranslationSmallWorkingSetIsFree) {
  const TlbConfig tlb = phi().tlb;
  MemRegion r("r", 1ULL << 30);
  r.set_page_size(PageSize::k1G);
  const auto tc = translation_cost(tlb, r, 1ULL << 20, AccessPattern::kRandom);
  EXPECT_DOUBLE_EQ(tc.tlb_miss_rate, 0.0);
}

TEST(Memory, TranslationHugeVsSmallPages) {
  const TlbConfig tlb = phi().tlb;
  const std::uint64_t ws = 400ULL << 20;

  MemRegion small("s", 1ULL << 30);
  small.set_page_size(PageSize::k4K);
  MemRegion huge("h", 1ULL << 30);
  huge.set_page_size(PageSize::k1G);

  const auto ts = translation_cost(tlb, small, ws, AccessPattern::kRandom);
  const auto th = translation_cost(tlb, huge, ws, AccessPattern::kRandom);
  EXPECT_GT(ts.tlb_miss_rate, 0.9);
  EXPECT_DOUBLE_EQ(th.tlb_miss_rate, 0.0);  // 4x1G reach covers 400MB
}

TEST(Memory, StreamingMissesAreRarePerAccess) {
  const TlbConfig tlb = phi().tlb;
  MemRegion r("r", 1ULL << 30);
  r.set_page_size(PageSize::k2M);
  const std::uint64_t ws = 400ULL << 20;
  const auto stream = translation_cost(tlb, r, ws, AccessPattern::kStreaming);
  const auto rand = translation_cost(tlb, r, ws, AccessPattern::kRandom);
  EXPECT_LT(stream.tlb_miss_rate, rand.tlb_miss_rate / 100.0);
}

TEST(Memory, SlicedZonePartitions) {
  MemRegion r("r", 64ULL << 20);
  r.set_slice_zones({0, 0, 1, 1});
  EXPECT_TRUE(r.is_sliced());
  EXPECT_EQ(r.zone_for_partition(0, 4), 0);
  EXPECT_EQ(r.zone_for_partition(3, 4), 1);
  EXPECT_EQ(r.zone_for_partition(0, 2), 0);
  EXPECT_EQ(r.zone_for_partition(1, 2), 1);
}

TEST(ExecModel, NumaPenaltyScalesMemoryTime) {
  const MachineConfig m = xeon8();
  const OsCosts costs = nautilus_costs(m);
  ExecModel em(m, costs);
  sim::Rng rng(1);

  MemRegion r("r", 1ULL << 30);
  r.set_page_size(PageSize::k1G);
  WorkBlock b;
  b.cpu_ns = 1'000'000;
  b.mem_fraction = 1.0;
  b.region = &r;

  const auto local = em.charge(b, /*cpu=*/0, /*zone=*/0, rng);
  const auto remote = em.charge(b, /*cpu=*/0, /*zone=*/7, rng);
  // Nominal time divides by the machine's perf factor; the remote
  // access pays the 2.1x SLIT penalty on top.
  const auto expected_local =
      static_cast<sim::Time>(1'000'000.0 / m.perf_factor);
  EXPECT_EQ(local.memory_ns, expected_local);
  EXPECT_NEAR(static_cast<double>(remote.memory_ns),
              static_cast<double>(expected_local) * 2.1, 2.0);
}

TEST(ExecModel, LinuxChargesFaultsNautilusDoesNot) {
  const MachineConfig m = phi();
  ExecModel linux_em(m, linux_costs(m));
  ExecModel nk_em(m, nautilus_costs(m));
  sim::Rng rng(1);

  WorkBlock b;
  b.cpu_ns = 1'000'000;
  b.mem_fraction = 0.5;
  b.bytes_touched = 64ULL << 20;
  b.working_set_bytes = 64ULL << 20;

  MemRegion lr("lr", 1ULL << 30);
  lr.set_demand_paged(true);
  lr.set_page_size(PageSize::k2M);
  lr.set_small_page_fraction(0.2);
  b.region = &lr;
  const auto lc = linux_em.charge(b, 0, 0, rng);
  EXPECT_GT(lc.fault_ns, 0);

  MemRegion nr("nr", 1ULL << 30);
  nr.set_page_size(PageSize::k1G);
  b.region = &nr;
  const auto nc = nk_em.charge(b, 0, 0, rng);
  EXPECT_EQ(nc.fault_ns, 0);
  EXPECT_EQ(nc.tlb_ns, 0);
  EXPECT_EQ(nc.noise_ns, 0);
}

TEST(ExecModel, NoiseOnlyOnNoisyOs) {
  const MachineConfig m = phi();
  ExecModel linux_em(m, linux_costs(m));
  sim::Rng rng(7);
  WorkBlock b;
  b.cpu_ns = 100 * sim::kMillisecond;
  const auto c = linux_em.charge(b, 0, -1, rng);
  EXPECT_GT(c.noise_ns, 0);
  EXPECT_GT(c.tick_ns, 0);
}

TEST(Cpu, ExclusiveOccupancySerializes) {
  sim::Engine eng;
  Cpu cpu(eng, 0, sim::kTimeNever, 0);
  sim::Time done_a = 0, done_b = 0;
  auto* a = eng.spawn("a", [&] {
    cpu.occupy(1000);
    done_a = eng.now();
  });
  auto* b = eng.spawn("b", [&] {
    cpu.occupy(1000);
    done_b = eng.now();
  });
  eng.wake(a);
  eng.wake(b);
  eng.run();
  // Two 1000ns occupations of one CPU take 2000ns total.
  EXPECT_EQ(std::max(done_a, done_b), 2000);
  EXPECT_EQ(cpu.busy_time(), 2000);
}

TEST(Cpu, TimeslicePreemptsLongRun) {
  sim::Engine eng;
  Cpu cpu(eng, 0, /*timeslice=*/100, /*context_switch=*/10);
  sim::Time done_long = 0, done_short = 0;
  auto* lng = eng.spawn("long", [&] {
    cpu.occupy(1000);
    done_long = eng.now();
  });
  auto* sht = eng.spawn("short", [&] {
    eng.sleep_for(10);  // arrive second
    cpu.occupy(50);
    done_short = eng.now();
  });
  eng.wake(lng);
  eng.wake(sht);
  eng.run();
  // The short task must not wait for the full long occupation.
  EXPECT_LT(done_short, done_long);
}

// The slice model at slice 100 ns and context switch 10 ns: an
// occupy(1000) that takes an idle CPU at 0, and waiters that sleep to
// their arrival time and then occupy the same CPU.
struct Arrival {
  sim::Time at;
  sim::Time duration;
};

struct SliceRun {
  sim::Time long_done = 0;
  std::vector<sim::Time> waiter_done;
  sim::Time busy = 0;
  std::uint64_t preemptions = 0;
  sim::Engine::Stats stats;
};

SliceRun run_behind_long(const std::vector<Arrival>& waiters) {
  sim::Engine eng;
  telemetry::CounterFabric counters(1);
  Cpu cpu(eng, 0, /*timeslice=*/100, /*context_switch=*/10, &counters);
  SliceRun r;
  r.waiter_done.resize(waiters.size());
  eng.wake(eng.spawn("long", [&] {
    cpu.occupy(1000);
    r.long_done = eng.now();
  }));
  for (std::size_t i = 0; i < waiters.size(); ++i) {
    eng.wake(eng.spawn("w" + std::to_string(i), [&, i] {
      eng.sleep_for(waiters[i].at);
      cpu.occupy(waiters[i].duration);
      r.waiter_done[i] = eng.now();
    }));
  }
  eng.run();
  r.busy = cpu.busy_time();
  r.preemptions = counters.total(telemetry::Counter::kCpuPreemptions);
  r.stats = eng.stats();
  return r;
}

TEST(Cpu, UncontendedRunIsOneEvent) {
  const SliceRun r = run_behind_long({});
  EXPECT_EQ(r.long_done, 1000);
  EXPECT_EQ(r.busy, 1000);
  // The thread's start and one wake at the run's end; stepping slice by
  // slice dispatched 11.
  EXPECT_EQ(r.stats.events_dispatched, 2u);
  EXPECT_EQ(r.preemptions, 0u);
}

TEST(Cpu, FirstWaiterPreemptsAtItsNextBoundary) {
  // Arrivals at 250 and 270: the holder stops at 300, hands over after
  // a context switch (310), both waiters run (360, 390), and it takes
  // the CPU back for the last 700 ns after another switch (400..1100).
  const SliceRun r = run_behind_long({{250, 50}, {270, 30}});
  EXPECT_EQ(r.long_done, 1100);
  EXPECT_EQ(r.waiter_done, (std::vector<sim::Time>{360, 390}));
  EXPECT_EQ(r.busy, 1100);
  EXPECT_EQ(r.preemptions, 1u);
  // The run's end wake, posted for 1000 when it began, finds the
  // holder gone.
  EXPECT_EQ(r.stats.stale_wakes, 1u);
}

TEST(Cpu, WaiterOnABoundaryIsNoticedAtTheNext) {
  // The tie convention: a waiter preempts at the first boundary
  // strictly after its arrival, so one arriving exactly at 200 is
  // noticed at 300.  Stepping slice by slice noticed it at 200 (the
  // waiter's wake was posted before the holder's), giving 1120/260.
  const SliceRun r = run_behind_long({{200, 50}, {270, 30}});
  EXPECT_EQ(r.long_done, 1100);
  EXPECT_EQ(r.waiter_done, (std::vector<sim::Time>{360, 390}));
  EXPECT_EQ(r.preemptions, 1u);
}

TEST(Cpu, WaiterInTheLastSliceDoesNotPreempt) {
  // The next boundary after 950 is the run's end.
  const SliceRun r = run_behind_long({{950, 50}});
  EXPECT_EQ(r.long_done, 1000);
  EXPECT_EQ(r.waiter_done, (std::vector<sim::Time>{1050}));
  EXPECT_EQ(r.preemptions, 0u);
  EXPECT_EQ(r.stats.stale_wakes, 0u);
}

// Failure.OversubscribedCpusStillProgress's scenario (8 threads on one
// Linux CPU, 20 ms each) under a seeded interleaving: every finishing
// time.
std::vector<sim::Time> oversubscribed_finish_times(sim::SchedConfig sched) {
  sim::Engine engine(5, sched);
  linuxmodel::LinuxOs os(engine, phi());
  std::vector<sim::Time> done(8, 0);
  for (int i = 0; i < 8; ++i) {
    os.spawn_thread(
        "t" + std::to_string(i),
        [&, i] {
          os.compute_ns(20 * sim::kMillisecond);
          done[static_cast<std::size_t>(i)] = engine.now();
        },
        /*cpu=*/0);
  }
  engine.run();
  EXPECT_GT(os.counters().total(telemetry::Counter::kCpuPreemptions), 0u);
  return done;
}

TEST(Cpu, OversubscribedLinuxRunsReplayUnderRandomAndPct) {
  for (const sim::SchedPolicy policy :
       {sim::SchedPolicy::kRandom, sim::SchedPolicy::kPct}) {
    SCOPED_TRACE(sim::sched_policy_name(policy));
    const sim::SchedConfig sched{policy, 7};
    const std::vector<sim::Time> first = oversubscribed_finish_times(sched);
    EXPECT_EQ(oversubscribed_finish_times(sched), first);
    for (const sim::Time t : first) EXPECT_GT(t, 20 * sim::kMillisecond);
  }
}

}  // namespace
}  // namespace kop::hw

// OMPT-style tool interface tests: registry semantics, callback counts
// against a parallel region of known structure, the ConstructProfiler
// aggregates, and the VIRGIL runtime-task events on both the user- and
// kernel-level task runtimes.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "core/stack.hpp"
#include "komp/team.hpp"
#include "ompt/ompt.hpp"
#include "ompt/profiler.hpp"
#include "osal/sync.hpp"
#include "virgil/virgil.hpp"

namespace {

using kop::ompt::Endpoint;
using kop::ompt::MutexEvent;
using kop::ompt::MutexKind;
using kop::ompt::Registry;
using kop::ompt::SyncRegion;
using kop::ompt::TaskRuntimeKind;
using kop::ompt::Tool;
using kop::ompt::WorkKind;

/// Counts every callback; intervals counted at begin.
struct CountingTool : Tool {
  std::map<std::string, int> n;

  void on_parallel(Endpoint e, kop::sim::Time, int team_size) override {
    if (e == Endpoint::kBegin) {
      ++n["parallel"];
      last_team_size = team_size;
    }
  }
  void on_implicit_task(Endpoint e, kop::sim::Time, int, int) override {
    if (e == Endpoint::kBegin) ++n["implicit-task"];
  }
  void on_work(WorkKind w, Endpoint e, kop::sim::Time, int,
               std::int64_t iterations) override {
    if (e == Endpoint::kBegin) {
      ++n[std::string("work.") + kop::ompt::work_kind_name(w)];
      last_iterations = iterations;
    }
  }
  void on_dispatch(kop::sim::Time, int, std::int64_t, std::int64_t) override {
    ++n["dispatch"];
  }
  void on_sync_region(SyncRegion s, Endpoint e, kop::sim::Time,
                      int) override {
    if (e == Endpoint::kBegin)
      ++n[std::string("sync.") + kop::ompt::sync_region_name(s)];
  }
  void on_sync_wait(Endpoint e, kop::sim::Time, int) override {
    if (e == Endpoint::kBegin) ++n["sync-wait"];
  }
  void on_mutex(MutexKind m, MutexEvent ev, kop::sim::Time,
                const void*) override {
    if (ev == MutexEvent::kAcquired)
      ++n[std::string("mutex.") + kop::ompt::mutex_kind_name(m)];
  }
  void on_task_create(kop::sim::Time, int) override { ++n["task-create"]; }
  void on_task_schedule(Endpoint e, kop::sim::Time, int, bool stolen) override {
    if (e == Endpoint::kBegin) {
      ++n["task-exec"];
      if (stolen) ++n["task-exec-stolen"];
    }
  }
  void on_rt_task_submit(TaskRuntimeKind k, kop::sim::Time, int) override {
    ++n[k == TaskRuntimeKind::kUser ? "rt-submit-user" : "rt-submit-kernel"];
  }
  void on_rt_task_execute(TaskRuntimeKind k, Endpoint e, kop::sim::Time, int,
                          bool) override {
    if (e == Endpoint::kBegin)
      ++n[k == TaskRuntimeKind::kUser ? "rt-exec-user" : "rt-exec-kernel"];
  }

  int last_team_size = 0;
  std::int64_t last_iterations = -1;
};

TEST(Registry, AttachDetachDedup) {
  Registry reg;
  CountingTool a, b;
  EXPECT_TRUE(reg.empty());
  reg.attach(&a);
  reg.attach(&a);  // duplicate attach is a no-op
  reg.attach(&b);
  EXPECT_EQ(reg.size(), 2u);
  int fired = 0;
  reg.emit([&](Tool&) { ++fired; });
  EXPECT_EQ(fired, 2);
  reg.detach(&a);
  EXPECT_EQ(reg.size(), 1u);
  reg.detach(&a);  // double detach is a no-op
  reg.detach(&b);
  EXPECT_TRUE(reg.empty());
}

class OmptCallbacks : public ::testing::Test {
 protected:
  void SetUp() override {
    kop::core::StackConfig cfg;
    cfg.machine = "phi";
    cfg.path = kop::core::PathKind::kLinuxOmp;
    cfg.num_threads = 4;
    stack_ = kop::core::Stack::create(cfg);
    stack_->os().tools().attach(&tool_);
  }

  std::unique_ptr<kop::core::Stack> stack_;
  CountingTool tool_;
};

TEST_F(OmptCallbacks, ParallelRegionOfKnownStructure) {
  constexpr std::int64_t kIters = 64;
  stack_->run_omp_app([&](kop::komp::Runtime& rt) {
    rt.parallel(4, [&](kop::komp::TeamThread& tt) {
      tt.for_loop(kop::komp::Schedule::kStatic, 0, 0, kIters,
                  [&](std::int64_t, std::int64_t) { tt.compute_ns(50); });
      tt.barrier();
      tt.critical("c", [&]() { tt.compute_ns(10); });
    });
    return 0;
  });

  // One parallel region, one implicit task per team member.
  EXPECT_EQ(tool_.n["parallel"], 1);
  EXPECT_EQ(tool_.last_team_size, 4);
  EXPECT_EQ(tool_.n["implicit-task"], 4);
  // One static loop per member, reporting the full iteration space.
  EXPECT_EQ(tool_.n["work.for-static"], 4);
  EXPECT_EQ(tool_.last_iterations, kIters);
  // Barriers: the loop's implicit closing barrier + the region-end
  // barrier (4 each), and the explicit tt.barrier() (4).
  EXPECT_EQ(tool_.n["sync.barrier-implicit"], 8);
  EXPECT_EQ(tool_.n["sync.barrier-explicit"], 4);
  // critical acquired once per member.
  EXPECT_EQ(tool_.n["mutex.critical"], 4);
}

TEST_F(OmptCallbacks, ExplicitTasksReportCreateAndSchedule) {
  constexpr int kTasks = 12;
  stack_->run_omp_app([&](kop::komp::Runtime& rt) {
    rt.parallel(4, [&](kop::komp::TeamThread& tt) {
      tt.single([&]() {
        for (int i = 0; i < kTasks; ++i)
          tt.task([](kop::komp::TeamThread& ex) { ex.compute_ns(40); });
      });
      tt.taskwait();
    });
    return 0;
  });
  EXPECT_EQ(tool_.n["task-create"], kTasks);
  EXPECT_EQ(tool_.n["task-exec"], kTasks);
  EXPECT_EQ(tool_.n["work.single"], 4);
  EXPECT_GE(tool_.n["sync.taskwait"], 4);
}

TEST_F(OmptCallbacks, DynamicLoopEmitsDispatches) {
  stack_->run_omp_app([&](kop::komp::Runtime& rt) {
    rt.parallel(4, [&](kop::komp::TeamThread& tt) {
      tt.for_loop(kop::komp::Schedule::kDynamic, 4, 0, 64,
                  [&](std::int64_t, std::int64_t) { tt.compute_ns(30); });
    });
    return 0;
  });
  EXPECT_EQ(tool_.n["work.for-dynamic"], 4);
  // 64 iterations in chunks of 4: exactly 16 dispatched chunks.
  EXPECT_EQ(tool_.n["dispatch"], 16);
}

TEST_F(OmptCallbacks, DetachedToolSeesNothing) {
  stack_->os().tools().detach(&tool_);
  stack_->run_omp_app([&](kop::komp::Runtime& rt) {
    rt.parallel(4, [&](kop::komp::TeamThread& tt) { tt.barrier(); });
    return 0;
  });
  EXPECT_TRUE(tool_.n.empty());
}

TEST(OmptProfiler, AggregatesMatchCallbackCounts) {
  kop::core::StackConfig cfg;
  cfg.machine = "phi";
  cfg.path = kop::core::PathKind::kLinuxOmp;
  cfg.num_threads = 4;
  auto stack = kop::core::Stack::create(cfg);
  kop::ompt::ConstructProfiler prof;
  stack->os().tools().attach(&prof);

  stack->run_omp_app([&](kop::komp::Runtime& rt) {
    rt.parallel(4, [&](kop::komp::TeamThread& tt) {
      tt.for_loop(kop::komp::Schedule::kStatic, 0, 0, 32,
                  [&](std::int64_t, std::int64_t) { tt.compute_ns(100); });
    });
    return 0;
  });

  const auto& aggs = prof.aggregates();
  ASSERT_TRUE(aggs.count("parallel"));
  EXPECT_EQ(aggs.at("parallel").count, 1u);
  EXPECT_GT(aggs.at("parallel").total_ns, 0);
  ASSERT_TRUE(aggs.count("for-static"));
  EXPECT_EQ(aggs.at("for-static").count, 4u);
  ASSERT_TRUE(aggs.count("implicit-task"));
  EXPECT_EQ(aggs.at("implicit-task").count, 4u);

  const std::string table = prof.format_table();
  EXPECT_NE(table.find("parallel"), std::string::npos);
  EXPECT_NE(table.find("for-static"), std::string::npos);

  prof.clear();
  EXPECT_TRUE(prof.aggregates().empty());
}

TEST(OmptProfiler, FormatRowPrintsLongLabelsWhole) {
  kop::ompt::ConstructProfiler::Agg a;
  a.count = 4;
  a.total_ns = 10'000;
  const std::string label(200, 'L');
  EXPECT_EQ(kop::ompt::ConstructProfiler::format_row(label, a),
            label + "          4         10.000       2.5000\n");
}

class VirgilEvents : public ::testing::TestWithParam<kop::core::PathKind> {};

TEST_P(VirgilEvents, RuntimeTaskSubmitAndExecuteBalance) {
  kop::core::StackConfig cfg;
  cfg.machine = "phi";
  cfg.path = GetParam();
  cfg.num_threads = 3;
  auto stack = kop::core::Stack::create(cfg);
  CountingTool tool;
  stack->os().tools().attach(&tool);

  constexpr int kTasks = 10;
  stack->run_cck_app([&](kop::osal::Os& os, kop::virgil::Virgil& vg) {
    kop::virgil::CountdownLatch latch(os, kTasks);
    for (int i = 0; i < kTasks; ++i) {
      vg.submit([&os, &latch]() {
        os.compute_ns(50);
        latch.count_down();
      });
    }
    latch.wait();
    return 0;
  });

  const bool user = GetParam() == kop::core::PathKind::kAutoMpLinux;
  const char* submit = user ? "rt-submit-user" : "rt-submit-kernel";
  const char* exec = user ? "rt-exec-user" : "rt-exec-kernel";
  EXPECT_EQ(tool.n[submit], kTasks);
  EXPECT_EQ(tool.n[exec], kTasks);
  // No events of the other runtime kind.
  EXPECT_EQ(tool.n[user ? "rt-submit-kernel" : "rt-submit-user"], 0);
}

INSTANTIATE_TEST_SUITE_P(BothRuntimes, VirgilEvents,
                         ::testing::Values(kop::core::PathKind::kAutoMpLinux,
                                           kop::core::PathKind::kAutoMpNautilus));

}  // namespace

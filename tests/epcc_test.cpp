// Tests for the EPCC microbenchmark suite implementation.
#include <gtest/gtest.h>

#include "core/stack.hpp"
#include "epcc/epcc.hpp"

namespace kop::epcc {
namespace {

EpccConfig quick_config() {
  EpccConfig c;
  c.outer_reps = 3;
  c.inner_iters = 4;
  c.delay_ns = 5 * sim::kMicrosecond;
  c.sched_iters_per_thread = 8;
  c.tasks_per_thread = 4;
  c.tree_depth = 3;
  return c;
}

std::vector<Measurement> run_part(core::PathKind path, int threads,
                                  const std::function<std::vector<Measurement>(Suite&)>& fn) {
  core::StackConfig cfg;
  cfg.machine = "phi";
  cfg.path = path;
  cfg.num_threads = threads;
  auto stack = core::Stack::create(cfg);
  std::vector<Measurement> out;
  stack->run_omp_app([&](komp::Runtime& rt) {
    Suite suite(rt, quick_config());
    out = fn(suite);
    return 0;
  });
  return out;
}

const Measurement& find(const std::vector<Measurement>& ms,
                        const std::string& name) {
  for (const auto& m : ms) {
    if (m.name == name) return m;
  }
  throw std::out_of_range("no measurement " + name);
}

TEST(Epcc, SyncbenchHasAllConstructs) {
  const auto ms = run_part(core::PathKind::kRtk, 8,
                           [](Suite& s) { return s.run_syncbench(); });
  for (const char* name :
       {"reference", "PARALLEL", "FOR", "PARALLEL_FOR", "BARRIER", "SINGLE",
        "CRITICAL", "LOCK/UNLOCK", "ORDERED", "ATOMIC", "REDUCTION"}) {
    EXPECT_NO_THROW(find(ms, name)) << name;
  }
  // Overheads are positive and sampled.
  EXPECT_GT(find(ms, "PARALLEL").overhead_us.mean(), 0.0);
  EXPECT_EQ(find(ms, "PARALLEL").overhead_us.count(), 3u);
  // PARALLEL_FOR costs at least as much as FOR.
  EXPECT_GE(find(ms, "PARALLEL_FOR").overhead_us.mean(),
            find(ms, "FOR").overhead_us.mean() * 0.5);
}

TEST(Epcc, SchedbenchChunkSweep) {
  // Use enough iterations per thread that every chunk size can still
  // spread over the team (the EPCC default is 128 per thread).
  core::StackConfig cfg;
  cfg.machine = "phi";
  cfg.path = core::PathKind::kRtk;
  cfg.num_threads = 8;
  auto stack = core::Stack::create(cfg);
  std::vector<Measurement> ms;
  stack->run_omp_app([&](komp::Runtime& rt) {
    EpccConfig ec = quick_config();
    ec.sched_iters_per_thread = 256;
    Suite suite(rt, ec);
    ms = suite.run_schedbench();
    return 0;
  });
  EXPECT_NO_THROW(find(ms, "STATIC"));
  EXPECT_NO_THROW(find(ms, "STATIC_128"));
  EXPECT_NO_THROW(find(ms, "GUIDED_2"));
  // dynamic,1 grabs the counter per iteration: costlier than dynamic,128.
  EXPECT_GT(find(ms, "DYNAMIC_1").overhead_us.mean(),
            find(ms, "DYNAMIC_128").overhead_us.mean());
  // plain static has the least dispatch work of all.
  EXPECT_LE(find(ms, "STATIC").overhead_us.mean(),
            find(ms, "DYNAMIC_1").overhead_us.mean());
}

TEST(Epcc, ArraybenchCopyCostsOrdering) {
  const auto ms = run_part(core::PathKind::kRtk, 8,
                           [](Suite& s) { return s.run_arraybench(); });
  const double priv = find(ms, "PRIVATE_59049").overhead_us.mean();
  const double first = find(ms, "FIRSTPRIVATE_59049").overhead_us.mean();
  // firstprivate copies the array on every thread: clearly pricier.
  EXPECT_GT(first, priv);
}

TEST(Epcc, TaskbenchRuns) {
  const auto ms = run_part(core::PathKind::kRtk, 4,
                           [](Suite& s) { return s.run_taskbench(); });
  for (const char* name :
       {"PARALLEL_TASK", "MASTER_TASK", "MASTER_TASK_BUSY_SLAVES",
        "CONDITIONAL_TASK", "TASK_WAIT", "TASK_BARRIER", "NESTED_TASK",
        "NESTED_MASTER_TASK", "BENCH_TASK_TREE", "LEAF_TASK_TREE"}) {
    EXPECT_NO_THROW(find(ms, name)) << name;
  }
}

TEST(Epcc, PikJitterLowerThanLinux) {
  // §6.1: "PIK experiences considerably lower variation in overhead".
  auto cv_of = [&](core::PathKind path) {
    const auto ms =
        run_part(path, 16, [](Suite& s) { return s.run_syncbench(); });
    return find(ms, "BARRIER").overhead_us.cv();
  };
  EXPECT_LT(cv_of(core::PathKind::kPik), cv_of(core::PathKind::kLinuxOmp) + 1e-9);
}

TEST(Epcc, FormatTableMentionsConstructs) {
  const auto ms = run_part(core::PathKind::kPik, 4,
                           [](Suite& s) { return s.run_arraybench(); });
  const std::string table = format_table("(a) ARRAY", ms);
  EXPECT_NE(table.find("FIRSTPRIVATE"), std::string::npos);
  EXPECT_NE(table.find("(a) ARRAY"), std::string::npos);
}

TEST(Epcc, FormatTablePrintsLongNamesWhole) {
  Measurement m;
  m.name = std::string(200, 'N');
  m.overhead_us.add(1.5);
  m.reference = true;
  const std::string table = format_table("(x) LONG", {m});
  EXPECT_EQ(table.substr(table.find('\n', table.find("construct"))),
            "\n  " + m.name + "      1.500     0.000  (reference)\n");
}

}  // namespace
}  // namespace kop::epcc

// Tests for the CCK compiler: PDG construction + OpenMP-metadata
// pruning, SCCs, transforms, technique selection (incl. the object-
// privatization limitation), the chunker, codegen, and execution.
#include <gtest/gtest.h>

#include "cck/codegen.hpp"
#include "cck/pdg.hpp"
#include "cck/program.hpp"
#include "cck/transforms.hpp"
#include "nautilus/kernel.hpp"

namespace kop::cck {
namespace {

Function fn_with(std::vector<Var> vars) {
  Function fn;
  fn.name = "main";
  for (auto& v : vars) fn.declare(v);
  return fn;
}

Loop doall_loop(std::int64_t trip = 1000) {
  Loop l;
  l.name = "doall";
  l.trip = trip;
  l.omp.parallel_for = true;
  Stmt s;
  s.label = "body";
  s.est_cost_ns = 1000;
  s.accesses = {read("a"), write("a")};
  l.body.push_back(s);
  l.exec.per_iter_ns = 1000;
  return l;
}

TEST(Pdg, ElementwiseAccessesHaveNoCarriedDeps) {
  Function fn = fn_with({{"a", 1 << 20, true}});
  Loop l = doall_loop();
  const Pdg pdg = Pdg::build(fn, l, true);
  EXPECT_FALSE(pdg.has_loop_carried_dep());
}

TEST(Pdg, StencilAccessIsCarried) {
  Function fn = fn_with({{"a", 1 << 20, true}});
  Loop l = doall_loop();
  l.body[0].accesses.push_back(carried_read("a"));  // a[i-1]
  const Pdg pdg = Pdg::build(fn, l, true);
  EXPECT_TRUE(pdg.has_loop_carried_dep());
  EXPECT_EQ(pdg.carried_vars(), std::vector<std::string>{"a"});
}

TEST(Pdg, SharedScalarWriteIsCarriedUnlessPrivatized) {
  Function fn = fn_with({{"a", 1 << 20, true}, {"tmp", 8, false}});
  Loop l = doall_loop();
  l.body[0].accesses.push_back(write("tmp", /*per_iter=*/false));
  l.body[0].accesses.push_back(read("tmp", /*per_iter=*/false));

  const Pdg without = Pdg::build(fn, l, true);
  EXPECT_TRUE(without.has_loop_carried_dep());

  l.omp.private_vars.push_back("tmp");  // scalar: AutoMP privatizes fine
  const Pdg with = Pdg::build(fn, l, true);
  EXPECT_FALSE(with.has_loop_carried_dep());
  EXPECT_TRUE(with.unsupported_privatization().empty());
}

TEST(Pdg, ObjectPrivatizationIsUnsupported) {
  Function fn = fn_with({{"a", 1 << 20, true}, {"work", 1 << 16, true}});
  Loop l = doall_loop();
  l.body[0].accesses.push_back(write("work", false));
  l.body[0].accesses.push_back(read("work", false));
  l.omp.private_vars.push_back("work");  // object: cannot privatize
  const Pdg pdg = Pdg::build(fn, l, true);
  EXPECT_TRUE(pdg.has_loop_carried_dep());
  ASSERT_EQ(pdg.unsupported_privatization().size(), 1u);
  EXPECT_EQ(pdg.unsupported_privatization()[0], "work");
}

TEST(Pdg, MetadataOffKeepsConservativeDeps) {
  Function fn = fn_with({{"a", 1 << 20, true}, {"sum", 8, false}});
  Loop l = doall_loop();
  l.body[0].accesses.push_back(write("sum", false));
  l.omp.reduction_vars.push_back("sum");
  EXPECT_FALSE(Pdg::build(fn, l, true).has_loop_carried_dep());
  EXPECT_TRUE(Pdg::build(fn, l, false).has_loop_carried_dep());
}

TEST(Pdg, SccsTopologicalOrder) {
  // s0 -> s1 <-> s2 -> s3 : three SCCs, {s1,s2} in the middle.
  Function fn = fn_with({{"x", 8, false}, {"y", 8, false}, {"z", 8, false},
                         {"w", 8, false}});
  Loop l;
  l.name = "pipe";
  l.trip = 100;
  Stmt s0, s1, s2, s3;
  s0.label = "s0";
  s0.accesses = {write("x", false)};
  s1.label = "s1";
  s1.accesses = {read("x", false), write("y", false), read("z", false)};
  s2.label = "s2";
  s2.accesses = {read("y", false), write("z", false)};
  s3.label = "s3";
  s3.accesses = {read("z", false), write("w", false)};
  l.body = {s0, s1, s2, s3};
  const Pdg pdg = Pdg::build(fn, l, false);
  const auto sccs = pdg.sccs();
  ASSERT_EQ(sccs.size(), 3u);
  EXPECT_EQ(sccs[0], std::vector<int>{0});
  EXPECT_EQ(sccs[1], (std::vector<int>{1, 2}));
  EXPECT_EQ(sccs[2], std::vector<int>{3});
}

TEST(Transforms, InlineMergesCallees) {
  Module m;
  Function main_fn;
  main_fn.name = "main";
  main_fn.items.push_back(Item::make_serial(100));
  main_fn.items.push_back(Item::make_call("helper"));
  Function helper;
  helper.name = "helper";
  helper.declare({"h", 8, false});
  helper.items.push_back(Item::make_loop(doall_loop()));
  m.functions["main"] = main_fn;
  m.functions["helper"] = helper;

  const Function flat = inline_calls(m);
  EXPECT_EQ(flat.items.size(), 2u);
  EXPECT_EQ(flat.items[1].kind, Item::Kind::kLoop);
  EXPECT_NE(flat.find_var("h"), nullptr);
}

TEST(Transforms, InlineDetectsRecursion) {
  Module m;
  Function main_fn;
  main_fn.name = "main";
  main_fn.items.push_back(Item::make_call("main"));
  m.functions["main"] = main_fn;
  EXPECT_THROW(inline_calls(m), std::logic_error);
}

TEST(Transforms, DistributionSplitsSequentialScc) {
  // One parallel statement + one carried-recurrence statement on a
  // different variable: distribution should split them.
  Function fn = fn_with({{"a", 1 << 20, true}, {"acc", 8, false}});
  Loop l;
  l.name = "mix";
  l.trip = 1000;
  Stmt par;
  par.label = "par";
  par.est_cost_ns = 900;
  par.accesses = {read("a"), write("a")};
  Stmt seq;
  seq.label = "seq";
  seq.est_cost_ns = 100;
  seq.accesses = {carried_write("acc"), carried_read("acc")};
  l.body = {par, seq};
  l.exec.per_iter_ns = 1000;

  const auto pieces = distribute_loop(fn, l, true);
  ASSERT_EQ(pieces.size(), 2u);
  // Payload split proportionally to estimated cost.
  EXPECT_NEAR(pieces[0].exec.per_iter_ns + pieces[1].exec.per_iter_ns, 1000,
              1e-6);
}

TEST(Transforms, FusionMergesAdjacentDoall) {
  Function fn = fn_with({{"a", 1 << 20, true}});
  Loop l1 = doall_loop();
  Loop l2 = doall_loop();
  l2.name = "doall2";
  auto fused = fuse_loops(fn, {l1, l2}, true);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_EQ(fused[0].body.size(), 2u);
  EXPECT_NEAR(fused[0].exec.per_iter_ns, 2000, 1e-9);
}

TEST(Transforms, FusionRefusesCarriedLoops) {
  Function fn = fn_with({{"a", 1 << 20, true}});
  Loop l1 = doall_loop();
  Loop l2 = doall_loop();
  l2.body[0].accesses.push_back(carried_write("a"));
  const auto fused = fuse_loops(fn, {l1, l2}, true);
  EXPECT_EQ(fused.size(), 2u);
}

TEST(Parallelizer, SelectsDoallAndChunksByLatency) {
  Function fn = fn_with({{"a", 1 << 20, true}});
  Parallelizer par(ParallelizerOptions{true, 50'000.0, 8});
  const LoopPlan plan = par.plan(fn, doall_loop(10'000));
  EXPECT_EQ(plan.tech, Technique::kDoall);
  // 1us iterations, 50us target -> ~50-iteration chunks.
  EXPECT_NEAR(static_cast<double>(plan.chunk), 50.0, 1.0);
}

TEST(Parallelizer, ChunkerClampsForBalance) {
  Parallelizer par(ParallelizerOptions{true, 50'000.0, 8});
  // Huge iterations: chunk would be <1, clamps to 1.
  EXPECT_EQ(par.choose_chunk(1e9, 100), 1);
  // Tiny iterations: chunk clamps so >= 4 tasks per lane exist.
  EXPECT_EQ(par.choose_chunk(1.0, 3200), 100);
}

TEST(Parallelizer, PrivatizationLimitationSequentializes) {
  Function fn = fn_with({{"a", 1 << 20, true}, {"work", 1 << 16, true}});
  Loop l = doall_loop();
  l.body[0].accesses.push_back(write("work", false));
  l.omp.private_vars.push_back("work");
  Parallelizer par(ParallelizerOptions{true, 50'000.0, 8});
  const LoopPlan plan = par.plan(fn, l);
  EXPECT_EQ(plan.tech, Technique::kSequential);
  ASSERT_FALSE(plan.notes.empty());
  EXPECT_NE(plan.notes[0].find("privatization"), std::string::npos);
}

TEST(Parallelizer, PipelineForMultiSccLoop) {
  Function fn = fn_with(
      {{"a", 1 << 20, true}, {"acc", 8, false}});
  Loop l;
  l.name = "pipe";
  l.trip = 1000;
  Stmt par;
  par.label = "par";
  par.est_cost_ns = 800;
  par.accesses = {read("a"), write("a")};
  Stmt seq;
  seq.label = "seq";
  seq.est_cost_ns = 200;
  seq.accesses = {carried_write("acc")};
  l.body = {par, seq};
  Parallelizer p(ParallelizerOptions{true, 50'000.0, 8});
  const LoopPlan plan = p.plan(fn, l);
  EXPECT_TRUE(plan.tech == Technique::kDswp || plan.tech == Technique::kHelix);
  EXPECT_NEAR(plan.parallel_fraction, 0.8, 1e-6);
}

TEST(Codegen, ReportSummarizesTechniques) {
  Module m;
  Function fn = fn_with({{"a", 1 << 20, true}, {"work", 1 << 16, true}});
  fn.items.push_back(Item::make_serial(1000));
  fn.items.push_back(Item::make_loop(doall_loop()));
  Loop blocked = doall_loop();
  blocked.name = "blocked";
  blocked.body[0].accesses.push_back(write("work", false));
  blocked.omp.private_vars.push_back("work");
  fn.items.push_back(Item::make_loop(blocked));
  m.functions["main"] = fn;

  CompilerOptions opts;
  opts.width = 8;
  const CompiledProgram prog = Compiler(opts).compile(m);
  EXPECT_EQ(prog.report.doall_loops, 1);
  EXPECT_EQ(prog.report.sequential_loops, 1);
  EXPECT_GT(prog.report.parallel_work_fraction, 0.4);
  EXPECT_LT(prog.report.parallel_work_fraction, 0.6);
  EXPECT_NE(prog.report.to_string().find("DOALL"), std::string::npos);
  ASSERT_EQ(prog.phases.size(), 3u);
  EXPECT_EQ(prog.phases[0].kind, Phase::Kind::kSerial);
  EXPECT_EQ(prog.phases[1].kind, Phase::Kind::kParallelLoop);
  EXPECT_EQ(prog.phases[2].kind, Phase::Kind::kSequentialLoop);
}

TEST(ChunkWork, SkewRampIntegratesCorrectly) {
  Loop l = doall_loop(1000);
  l.exec.skew = 0.5;
  l.exec.per_iter_ns = 1000;
  // First chunk is cheap (mult ~ 0.5), last chunk expensive (~1.5).
  const auto first = chunk_work(l, 0, 100);
  const auto last = chunk_work(l, 900, 1000);
  EXPECT_LT(first.cpu_ns, last.cpu_ns);
  // Whole loop integrates to trip * per_iter.
  const auto whole = chunk_work(l, 0, 1000);
  EXPECT_NEAR(static_cast<double>(whole.cpu_ns), 1000.0 * 1000.0, 1000.0);
}

TEST(Program, RunsDoallOnKernelVirgil) {
  sim::Engine eng(9);
  nautilus::NautilusKernel nk(eng, hw::phi());
  Module m;
  Function fn = fn_with({{"a", 1 << 20, true}});
  fn.items.push_back(Item::make_loop(doall_loop(512)));
  m.functions["main"] = fn;
  CompilerOptions opts;
  opts.width = 8;
  const CompiledProgram prog = Compiler(opts).compile(m);

  sim::Time elapsed = 0;
  nk.spawn_thread(
      "main",
      [&] {
        nk.task_system().start(8);
        ProgramRunner runner(nk, nk.task_system());
        elapsed = runner.run(prog);
        nk.task_system().stop();
      },
      0);
  eng.run();
  // 512 x 1us of work over 8 lanes: > 64us (ideal), well under 512us
  // (serial).
  EXPECT_GT(elapsed, 64 * sim::kMicrosecond);
  EXPECT_LT(elapsed, 400 * sim::kMicrosecond);
}

}  // namespace
}  // namespace kop::cck

// Appended coverage: PDG DOT export.
namespace kop::cck {
namespace {

TEST(Pdg, DotExportNamesStatementsAndDeps) {
  Function fn = fn_with({{"a", 1 << 20, true}, {"acc", 8, false}});
  Loop l;
  l.name = "dotted";
  l.trip = 10;
  Stmt s1;
  s1.label = "produce";
  s1.accesses = {write("a")};
  Stmt s2;
  s2.label = "consume";
  s2.accesses = {read("a"), carried_write("acc")};
  l.body = {s1, s2};
  const Pdg pdg = Pdg::build(fn, l, false);
  const std::string dot = pdg.to_dot(l);
  EXPECT_NE(dot.find("digraph \"dotted\""), std::string::npos);
  EXPECT_NE(dot.find("produce"), std::string::npos);
  EXPECT_NE(dot.find("consume"), std::string::npos);
  EXPECT_NE(dot.find("flow:a"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // carried acc
}

}  // namespace
}  // namespace kop::cck

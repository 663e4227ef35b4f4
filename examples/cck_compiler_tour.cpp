// Scenario: a compiler engineer explores what the CCK/AutoMP pipeline
// does to a mixed program -- a DOALL loop, a scalar reduction, a loop
// needing *object* privatization (the documented limitation), and a
// recurrence that only pipelines.  We compile twice (with and without
// the OpenMP semantic metadata) and run the result on kernel VIRGIL.
#include <cstdio>

#include "cck/codegen.hpp"
#include "cck/program.hpp"
#include "nautilus/kernel.hpp"

using namespace kop;

namespace {

cck::Module build_program(hw::MemRegion* data) {
  cck::Module m;
  cck::Function fn;
  fn.name = "main";
  fn.declare({"grid", 64ULL << 20, /*is_object=*/true});
  fn.declare({"sum", 8, /*is_object=*/false});
  fn.declare({"scratch", 1ULL << 20, /*is_object=*/true});
  fn.declare({"state", 8, /*is_object=*/false});

  auto make_exec = [&](double per_iter) {
    cck::ExecInfo e;
    e.region = data;
    e.per_iter_ns = per_iter;
    e.mem_fraction = 0.4;
    e.bytes_per_iter = 512;
    return e;
  };

  {  // 1. textbook DOALL: a[i] = f(a[i])
    cck::Loop l;
    l.name = "stencil_update";
    l.trip = 4096;
    l.omp.parallel_for = true;
    cck::Stmt s;
    s.label = "update";
    s.est_cost_ns = 900;
    s.accesses = {cck::read("grid"), cck::write("grid")};
    l.body.push_back(s);
    l.exec = make_exec(900);
    fn.items.push_back(cck::Item::make_loop(l));
  }
  {  // 2. scalar reduction: sum += a[i] -- privatizable (scalar)
    cck::Loop l;
    l.name = "norm";
    l.trip = 4096;
    l.omp.parallel_for = true;
    l.omp.reduction_vars = {"sum"};
    cck::Stmt s;
    s.label = "acc";
    s.est_cost_ns = 300;
    s.accesses = {cck::read("grid"),
                  cck::Access{"sum", true, false, false},
                  cck::Access{"sum", false, false, false}};
    l.body.push_back(s);
    l.exec = make_exec(300);
    fn.items.push_back(cck::Item::make_loop(l));
  }
  {  // 3. per-thread work array: private(scratch) -- object: blocked
    cck::Loop l;
    l.name = "solver_sweep";
    l.trip = 2048;
    l.omp.parallel_for = true;
    l.omp.private_vars = {"scratch"};
    cck::Stmt s;
    s.label = "sweep";
    s.est_cost_ns = 1200;
    s.accesses = {cck::read("grid"), cck::write("grid"),
                  cck::Access{"scratch", true, false, false},
                  cck::Access{"scratch", false, false, false}};
    l.body.push_back(s);
    l.exec = make_exec(1200);
    fn.items.push_back(cck::Item::make_loop(l));
  }
  {  // 4. recurrence feeding parallel work: pipeline candidate
    cck::Loop l;
    l.name = "time_advance";
    l.trip = 2048;
    cck::Stmt rec;
    rec.label = "advance_state";
    rec.est_cost_ns = 150;
    rec.accesses = {cck::carried_write("state"), cck::carried_read("state")};
    cck::Stmt work;
    work.label = "apply";
    work.est_cost_ns = 850;
    work.accesses = {cck::read("state", false), cck::read("grid"),
                     cck::write("grid")};
    l.body = {rec, work};
    l.exec = make_exec(1000);
    fn.items.push_back(cck::Item::make_loop(l));
  }
  m.functions["main"] = std::move(fn);
  return m;
}

}  // namespace

int main() {
  sim::Engine engine(7);
  nautilus::NautilusKernel kernel(engine, hw::phi());

  int exit_code = 0;
  kernel.spawn_thread(
      "main",
      [&] {
        hw::MemRegion* data = kernel.alloc_region(
            "grid", 64ULL << 20, osal::AllocPolicy::local());
        const cck::Module module = build_program(data);

        cck::CompilerOptions with_md;
        with_md.width = 16;
        const auto prog = cck::Compiler(with_md).compile(module);
        std::printf("--- compile WITH OpenMP metadata ---\n%s\n",
                    prog.report.to_string().c_str());

        cck::CompilerOptions without_md = with_md;
        without_md.use_omp_metadata = false;
        const auto blind = cck::Compiler(without_md).compile(module);
        std::printf("--- compile WITHOUT metadata (plain auto-par) ---\n%s\n",
                    blind.report.to_string().c_str());

        kernel.task_system().start(16);
        cck::ProgramRunner runner(kernel, kernel.task_system());
        const sim::Time with_t = runner.run(prog);
        const sim::Time blind_t = runner.run(blind);
        kernel.task_system().stop();

        std::printf("execution on kernel VIRGIL (16 lanes):\n");
        std::printf("  with metadata:    %8.3f ms virtual\n",
                    sim::to_seconds(with_t) * 1e3);
        std::printf("  without metadata: %8.3f ms virtual\n",
                    sim::to_seconds(blind_t) * 1e3);
        std::printf("\nThe metadata turns the reduction loop into a DOALL the\n"
                    "plain analysis must serialize; the object-privatized\n"
                    "sweep stays sequential either way (the AutoMP\n"
                    "limitation, paper SS6.2).\n");
        exit_code = prog.report.doall_loops >= 2 ? 0 : 1;
      },
      0);
  engine.run();
  return exit_code;
}

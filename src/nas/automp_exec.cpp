#include "nas/exec.hpp"

namespace kop::nas {

namespace {
constexpr int kParts = 64;
}

RunResult run_automp(osal::Os& os, virgil::Virgil& vg,
                     const BenchmarkSpec& spec) {
  RunResult out;
  auto regions = alloc_regions(os, spec);

  // --- untimed init: first touch via VIRGIL tasks (the CCK-compiled
  // initialization loop is a DOALL too) ---
  const sim::Time init_start = os.engine().now();
  {
    virgil::CountdownLatch latch(
        os, static_cast<int>(regions.size()) * kParts);
    for (auto& [name, region] : regions) {
      hw::MemRegion* r = region;
      for (int p = 0; p < kParts; ++p) {
        vg.submit([&os, &latch, r, p]() {
          const std::uint64_t slice = r->bytes() / kParts;
          hw::WorkBlock b;
          b.cpu_ns = static_cast<sim::Time>(static_cast<double>(slice) / 16.0);
          b.mem_fraction = 0.9;
          b.bytes_touched = slice;
          b.working_set_bytes = slice;
          b.pattern = hw::AccessPattern::kStreaming;
          b.region = r;
          const int zone = os.resolve_data_zone(r, p, kParts);
          os.compute(b, zone);
          latch.count_down();
        });
      }
    }
    latch.wait();
  }
  out.init_seconds = sim::to_seconds(os.engine().now() - init_start);

  // --- compile (front end + AutoMP middle end + backend) ---
  const cck::Module module = to_cck_module(spec, regions);
  cck::CompilerOptions copts;
  copts.width = vg.width();
  copts.kernel_target = vg.kernel();
  const cck::Compiler compiler(copts);
  const cck::CompiledProgram program = compiler.compile(module);
  out.compile_report = program.report;

  // --- timed section ---
  cck::ProgramRunner runner(os, vg);
  const sim::Time t0 = os.engine().now();
  for (int step = 0; step < spec.timesteps; ++step) runner.run(program);
  out.timed_seconds = sim::to_seconds(os.engine().now() - t0);

  for (auto& [name, region] : regions) os.free_region(region);
  return out;
}

}  // namespace kop::nas

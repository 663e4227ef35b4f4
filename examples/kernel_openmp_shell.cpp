// Scenario: the RTK-only superpower -- *kernel code itself* can use
// OpenMP (§3, Fig. 6 "applies to all code in kernel").  We register
// two kernel shell commands that parallelize internal kernel work:
// a memory-zone scrubber and a parallel checksum over a buffer, both
// with real computed results.
#include <cstdio>
#include <numeric>
#include <vector>

#include "rtk/rtk.hpp"

using namespace kop;

int main() {
  sim::Engine engine(42);
  nautilus::NautilusKernel kernel(engine, hw::phi());
  rtk::RtkStack stack(kernel, /*use_pte_pthreads=*/false);
  kernel.set_env("OMP_NUM_THREADS", "16");

  std::printf("RTK: OpenMP inside kernel shell commands\n\n");

  // Command 1: parallel checksum of a "DMA buffer".
  std::vector<std::uint64_t> buffer(1 << 16);
  std::iota(buffer.begin(), buffer.end(), 1);
  stack.register_app("checksum", [&](komp::Runtime& rt) {
    std::uint64_t sum = 0;
    rt.parallel([&](komp::TeamThread& tt) {
      std::uint64_t local = 0;
      tt.for_loop(komp::Schedule::kStatic, 0, 0,
                  static_cast<std::int64_t>(buffer.size()),
                  [&](std::int64_t b, std::int64_t e) {
                    for (std::int64_t i = b; i < e; ++i)
                      local += buffer[static_cast<std::size_t>(i)];
                    tt.compute_ns(40 * (e - b));
                  },
                  /*nowait=*/true);
      const double total =
          tt.reduce(static_cast<double>(local), komp::ReduceOp::kSum);
      tt.master([&] { sum = static_cast<std::uint64_t>(total); });
      tt.barrier();
    });
    const std::uint64_t n = buffer.size();
    const bool ok = sum == n * (n + 1) / 2;
    std::printf("  [checksum] sum=%llu (%s)\n",
                static_cast<unsigned long long>(sum), ok ? "ok" : "BAD");
    return ok ? 0 : 1;
  });

  // Command 2: parallel scrub of the DRAM zone's free lists -- a
  // classic kernel maintenance job, now a parallel for.
  stack.register_app("scrub", [&](komp::Runtime& rt) {
    auto& os = rt.os();
    hw::MemRegion* zone0 =
        os.alloc_region("scrub-window", 2ULL << 30, osal::AllocPolicy::in_zone(0));
    rt.parallel([&](komp::TeamThread& tt) {
      tt.for_loop(komp::Schedule::kDynamic, 4, 0, 256,
                  [&](std::int64_t b, std::int64_t e) {
                    hw::WorkBlock w;
                    w.cpu_ns = 30'000 * (e - b);
                    w.mem_fraction = 0.8;
                    w.region = zone0;
                    w.bytes_touched = (2ULL << 30) / 256 *
                                      static_cast<std::uint64_t>(e - b);
                    w.working_set_bytes = (2ULL << 30) / 256;
                    tt.compute(w);
                  });
    });
    os.free_region(zone0);
    std::printf("  [scrub] 2 GiB scrubbed in parallel, virtual time %.3f ms\n",
                sim::to_seconds(engine.now()) * 1e3);
    return 0;
  });

  const int rc1 = stack.run_shell("checksum");
  const int rc2 = stack.run_shell("scrub");
  std::printf("\nshell commands available: ");
  for (const auto& name : kernel.shell_command_names())
    std::printf("%s ", name.c_str());
  std::printf("\nexit codes: checksum=%d scrub=%d\n", rc1, rc2);
  return rc1 | rc2;
}

// Scenario: bringing a new binary up under PIK, strace-style.  The
// paper built the syscall layer by watching which calls a program
// makes and implementing them iteratively (§4.3: "Syscall stubs were
// added for each Linux syscall type so we can see all activity").
// This example runs an OpenMP app in a PIK process and prints the
// syscall activity report a porter would read.
#include <cstdio>

#include "pik/pik.hpp"

using namespace kop;

int main() {
  sim::Engine engine(42);
  pik::PikOs os(engine, hw::phi());
  pik::PikStack stack(os, /*app_static_bytes=*/256ULL << 20);
  os.set_env("OMP_NUM_THREADS", "8");

  const int code = stack.run_app("npb.kernel.x", [&](komp::Runtime& rt) {
    // The app: a parallel region plus some console output through the
    // emulated write(2).
    double sum = 0.0;
    rt.parallel([&](komp::TeamThread& tt) {
      const double part = tt.reduce(1.0, komp::ReduceOp::kSum);
      tt.master([&] { sum = part; });
      tt.barrier();
    });
    pik::SyscallArgs w;
    w.arg[0] = 1;
    w.data = "team of " + std::to_string(static_cast<int>(sum)) +
             " threads inside a kernel-mode process\n";
    stack.syscalls().invoke(pik::Sys::kWrite, w);

    // Something the layer does NOT implement, to show the stub path.
    stack.syscalls().invoke(/*nr=*/165 /* mount */);
    return 0;
  });

  std::printf("PIK process '%s' exited with %d\n",
              stack.process()->name.c_str(), code);
  std::printf("console:\n%s\n", stack.console().c_str());

  std::printf("syscall activity (total %llu):\n",
              static_cast<unsigned long long>(stack.syscalls().total_calls()));
  const struct {
    pik::Sys nr;
    const char* name;
  } kNamed[] = {
      {pik::Sys::kArchPrctl, "arch_prctl (FSBASE/TLS)"},
      {pik::Sys::kSetTidAddress, "set_tid_address"},
      {pik::Sys::kMmap, "mmap"},
      {pik::Sys::kSchedGetaffinity, "sched_getaffinity"},
      {pik::Sys::kOpenat, "openat (/proc/self)"},
      {pik::Sys::kRead, "read"},
      {pik::Sys::kClose, "close"},
      {pik::Sys::kClone, "clone (thread create)"},
      {pik::Sys::kWrite, "write"},
      {pik::Sys::kGetrandom, "getrandom"},
      {pik::Sys::kClockGettime, "clock_gettime (no vDSO!)"},
      {pik::Sys::kExitGroup, "exit_group"},
  };
  for (const auto& s : kNamed) {
    std::printf("  %-28s %llu\n", s.name,
                static_cast<unsigned long long>(stack.syscalls().calls(s.nr)));
  }
  std::printf("unimplemented numbers seen (answered -ENOSYS):");
  for (int nr : stack.syscalls().unimplemented_seen()) std::printf(" %d", nr);
  std::printf("\n\nA porter implements exactly what shows up here -- the\n"
              "paper's iterative bring-up loop.\n");
  return code;
}

#include "pik/pik.hpp"

#include "komp/tuning.hpp"

namespace kop::pik {

nautilus::ExecutableImage default_app_image(const std::string& name,
                                            std::uint64_t app_static_bytes) {
  nautilus::ExecutableImage img;
  img.name = name;
  img.position_independent = true;  // -fPIE (§4.1, the one extra flag)
  img.statically_linked = true;     // static PIE via the nld link script
  img.text_bytes = 6ULL << 20;
  img.rodata_bytes = 2ULL << 20;
  img.data_bytes = 1ULL << 20;
  img.bss_bytes = app_static_bytes;
  img.tls.tdata_bytes = 64ULL << 10;
  img.tls.tbss_bytes = 192ULL << 10;
  img.linked_libs = {"libomp.a", "libc.a", "libm.a", "libpthread.a",
                     "libstdc++.a", "crt0.o"};
  img.header.magic = nautilus::kMultiboot2Magic64;
  img.header.image_bytes = img.loadable_bytes();
  img.header.entry_offset = 0x1000;
  return img;
}

PikStack::PikStack(PikOs& os, std::uint64_t app_static_bytes)
    : os_(&os), app_static_bytes_(app_static_bytes) {
  // Physical window the loader and mmap emulation draw from.
  phys_ = std::make_unique<nautilus::BuddyAllocator>(
      /*base=*/4ULL << 30, /*size=*/32ULL << 30, /*min_block=*/4096);
  loader_ = std::make_unique<nautilus::Loader>(*phys_);
  tls_ = std::make_unique<nautilus::TlsSupport>(*phys_);
  futex_ = std::make_unique<linuxmodel::FutexTable>(*os_);
  syscalls_ = std::make_unique<SyscallTable>(*os_);

  // The unchanged user binary: glibc pthreads tuning, clone() routed
  // through the emulated syscall table.
  auto tuning = pthread_compat::linux_glibc_tuning();
  tuning.on_thread_create = [this]() {
    SyscallArgs args;
    args.arg[0] = 0x3d0f00;  // CLONE_VM|CLONE_FS|... (flags, informational)
    syscalls_->invoke(Sys::kClone, args);
  };
  pthreads_ = std::make_unique<pthread_compat::Pthreads>(*os_, tuning);

  install_syscalls();
}

PikStack::~PikStack() = default;

void PikStack::install_syscalls() {
  syscalls_->implement(Sys::kWrite, [this](const SyscallArgs& a) {
    const std::uint64_t fd = a.arg[0];
    if (fd != 1 && fd != 2) return SyscallResult{kEbadf, {}};
    console_ += a.data;
    return SyscallResult{static_cast<long>(a.data.size()), {}};
  });

  syscalls_->implement(Sys::kOpenat, [this](const SyscallArgs& a) {
    // Virtual filesystems are not implemented except /proc/self (§4.3).
    if (a.path.rfind("/proc/self", 0) != 0) return SyscallResult{kEnoent, {}};
    OpenFile f;
    f.path = a.path;
    if (a.path == "/proc/self/status") {
      f.content =
          "Name:\t" + (process_ ? process_->name : std::string("pik")) +
          "\nPid:\t1\nThreads:\t" + std::to_string(1 + pthreads_->threads_created()) +
          "\n";
    } else if (a.path == "/proc/self/maps") {
      f.content = "00000000-ffffffff rw-p 00000000 00:00 0 [pik]\n";
    } else {
      return SyscallResult{kEnoent, {}};
    }
    const int fd = next_fd_++;
    fds_[fd] = std::move(f);
    return SyscallResult{fd, {}};
  });

  syscalls_->implement(Sys::kRead, [this](const SyscallArgs& a) {
    auto it = fds_.find(static_cast<int>(a.arg[0]));
    if (it == fds_.end()) return SyscallResult{kEbadf, {}};
    OpenFile& f = it->second;
    const std::size_t want = a.arg[2];
    const std::string out = f.content.substr(
        std::min(f.offset, f.content.size()), want);
    f.offset += out.size();
    return SyscallResult{static_cast<long>(out.size()), out};
  });

  syscalls_->implement(Sys::kClose, [this](const SyscallArgs& a) {
    return SyscallResult{fds_.erase(static_cast<int>(a.arg[0])) > 0 ? 0 : kEbadf,
                         {}};
  });

  syscalls_->implement(Sys::kMmap, [this](const SyscallArgs& a) {
    const std::uint64_t len = a.arg[1];
    if (len == 0) return SyscallResult{kEinval, {}};
    const std::uint64_t addr = phys_->alloc(len);
    mmaps_[addr] = len;
    return SyscallResult{static_cast<long>(addr), {}};
  });

  syscalls_->implement(Sys::kMunmap, [this](const SyscallArgs& a) {
    auto it = mmaps_.find(a.arg[0]);
    if (it == mmaps_.end()) return SyscallResult{kEinval, {}};
    phys_->free(it->first);
    mmaps_.erase(it);
    return SyscallResult{0, {}};
  });

  syscalls_->implement(Sys::kMprotect,
                       [](const SyscallArgs&) { return SyscallResult{0, {}}; });
  syscalls_->implement(Sys::kBrk, [this](const SyscallArgs& a) {
    // Minimal brk: report a fixed break; libomp's allocations go
    // through mmap anyway.
    (void)a;
    return SyscallResult{static_cast<long>(0x20000000), {}};
  });
  syscalls_->implement(Sys::kRtSigprocmask,
                       [](const SyscallArgs&) { return SyscallResult{0, {}}; });

  syscalls_->implement(Sys::kSchedYield, [this](const SyscallArgs&) {
    if (os_->engine().current() != nullptr) os_->engine().post_in(0, [] {});
    return SyscallResult{0, {}};
  });

  syscalls_->implement(Sys::kNanosleep, [this](const SyscallArgs& a) {
    if (os_->engine().current() != nullptr)
      os_->engine().sleep_for(static_cast<sim::Time>(a.arg[0]));
    return SyscallResult{0, {}};
  });

  syscalls_->implement(Sys::kGetpid,
                       [](const SyscallArgs&) { return SyscallResult{1, {}}; });
  syscalls_->implement(Sys::kGettid,
                       [](const SyscallArgs&) { return SyscallResult{1, {}}; });

  syscalls_->implement(Sys::kClone, [this](const SyscallArgs&) {
    // Thread creation itself happens in the kernel's thread layer; the
    // syscall records the crossing and returns a tid.  Per-stack state
    // (not function-static): several PikStack engines may run
    // concurrently on different host threads.
    return SyscallResult{next_clone_tid_++, {}};
  });

  syscalls_->implement(Sys::kArchPrctl, [this](const SyscallArgs& a) {
    constexpr std::uint64_t kArchSetFs = 0x1002;
    if (a.arg[0] != kArchSetFs) return SyscallResult{kEinval, {}};
    tls_->set_fsbase(/*thread_id=*/1, a.arg[1]);
    return SyscallResult{0, {}};
  });

  syscalls_->implement(Sys::kFutex, [this](const SyscallArgs& a) {
    constexpr std::uint64_t kFutexWait = 0;
    constexpr std::uint64_t kFutexWake = 1;
    const std::uint64_t op = a.arg[1] & 0x7f;
    if (op == kFutexWait) {
      futex_->wait(a.arg[0]);
      return SyscallResult{0, {}};
    }
    if (op == kFutexWake) {
      return SyscallResult{futex_->wake(a.arg[0], static_cast<int>(a.arg[2])),
                           {}};
    }
    return SyscallResult{kEinval, {}};
  });

  syscalls_->implement(Sys::kSchedGetaffinity, [this](const SyscallArgs&) {
    // Returns the mask size; libomp uses this to size its thread pool.
    return SyscallResult{os_->machine().num_cpus, {}};
  });

  syscalls_->implement(Sys::kSetTidAddress,
                       [](const SyscallArgs&) { return SyscallResult{1, {}}; });

  syscalls_->implement(Sys::kClockGettime, [this](const SyscallArgs&) {
    // The vDSO is not detected (§4.3), so time queries are real
    // syscalls in PIK.
    return SyscallResult{static_cast<long>(os_->engine().now()), {}};
  });

  syscalls_->implement(Sys::kExitGroup, [this](const SyscallArgs& a) {
    if (process_ != nullptr) {
      process_->exited = true;
      process_->exit_code = static_cast<int>(a.arg[0]);
    }
    return SyscallResult{0, {}};
  });

  syscalls_->implement(Sys::kGetrandom, [this](const SyscallArgs& a) {
    return SyscallResult{static_cast<long>(a.arg[1]),
                         std::string(a.arg[1], '\x42')};
  });
}

void PikStack::prestart(PikProcess& proc) {
  // The "pre-start" wrapper (§4.2): complete the Linux-process
  // illusion before crt0/main.  This is the C-runtime startup sequence
  // a static-PIE glibc binary performs, over the emulated interface.
  SyscallArgs a;

  // TLS for the initial thread: clone .tdata, zero .tbss, point FSBASE.
  const std::uint64_t fsbase = tls_->create_block(proc.program.tls);
  a = {};
  a.arg[0] = 0x1002;  // ARCH_SET_FS
  a.arg[1] = fsbase;
  syscalls_->invoke(Sys::kArchPrctl, a);

  a = {};
  syscalls_->invoke(Sys::kSetTidAddress, a);
  syscalls_->invoke(Sys::kBrk, a);
  syscalls_->invoke(Sys::kRtSigprocmask, a);

  // Early mmap for malloc's first arena.
  a = {};
  a.arg[1] = 4ULL << 20;
  syscalls_->invoke(Sys::kMmap, a);

  // libomp bring-up: topology + /proc/self (§4.3).
  a = {};
  syscalls_->invoke(Sys::kSchedGetaffinity, a);
  a = {};
  a.path = "/proc/self/status";
  const auto fd = syscalls_->invoke(Sys::kOpenat, a);
  if (fd.rv >= 0) {
    SyscallArgs r;
    r.arg[0] = static_cast<std::uint64_t>(fd.rv);
    r.arg[2] = 4096;
    syscalls_->invoke(Sys::kRead, r);
    SyscallArgs c;
    c.arg[0] = static_cast<std::uint64_t>(fd.rv);
    syscalls_->invoke(Sys::kClose, c);
  }
  a = {};
  a.arg[1] = 16;
  syscalls_->invoke(Sys::kGetrandom, a);
  syscalls_->invoke(Sys::kClockGettime, {});

  proc.prestart_complete = true;
}

int PikStack::run_app(const std::string& name, AppMain app) {
  return run_app(name, default_app_image(name, app_static_bytes_),
                 std::move(app));
}

int PikStack::run_app(const std::string& name,
                      const nautilus::ExecutableImage& image, AppMain app) {
  process_ = std::make_unique<PikProcess>();
  process_->name = name;
  process_->environ["OMP_NUM_THREADS"] =
      os_->get_env("OMP_NUM_THREADS").value_or("");

  os_->spawn_thread(
      "pik:" + name,
      [this, image, app = std::move(app)]() {
        // Loader: validate header, place the blob, init BSS/TBSS (§4.2).
        os_->engine().sleep_for(loader_->load_cost(image));
        process_->program = loader_->load(image);

        prestart(*process_);

        {
          // The pristine libomp (identical tuning to Linux, §6.1).
          komp::Runtime runtime(*pthreads_, komp::pik_libomp_tuning());
          const int code = app(runtime);
          SyscallArgs a;
          a.arg[0] = static_cast<std::uint64_t>(code);
          syscalls_->invoke(Sys::kExitGroup, a);
        }
        loader_->unload(process_->program);
      },
      /*cpu=*/0);
  os_->engine().run();
  return process_->exit_code;
}

}  // namespace kop::pik

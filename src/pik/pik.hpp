// Process-in-kernel (PIK, paper §4): an unmodified, statically linked
// PIE executable (libomp and libc folded in by `nld`) is loaded by the
// kernel's multiboot2-aware loader into a kernel-mode process and run
// against a Linux-emulating syscall interface.
//
// PikStack runs over a PikOs (kernel execution personality, user-layout
// memory) and adds: loader + TLS + futex + syscall table -> pristine
// glibc-tuned pthreads -> pristine libomp tuning -> app.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "komp/runtime.hpp"
#include "linuxmodel/futex.hpp"
#include "nautilus/buddy.hpp"
#include "nautilus/loader.hpp"
#include "nautilus/tls.hpp"
#include "pik/pik_os.hpp"
#include "pik/syscalls.hpp"
#include "pthread_compat/pthreads.hpp"

namespace kop::pik {

/// Build the static-PIE image nld would produce for an app: text,
/// data, gigantic BSS, TLS template, and the whole user-space library
/// stack folded in (which is why PIK images dwarf kernel modules, §7).
nautilus::ExecutableImage default_app_image(const std::string& name,
                                            std::uint64_t app_static_bytes);

/// The kernel-mode process abstraction (§4.2): a thread group with a
/// pre-start wrapper that completes Linux-compat setup before main().
struct PikProcess {
  std::string name;
  nautilus::LoadedProgram program;
  bool prestart_complete = false;
  int exit_code = -1;
  bool exited = false;
  std::map<std::string, std::string> environ;
};

class PikStack {
 public:
  /// A kernel-mode process world on `os`.  `app_static_bytes` is the
  /// static data an app image links in; PIK has no boot-image/MMIO
  /// constraint, since the loader places the image anywhere (§6.2).
  PikStack(PikOs& os, std::uint64_t app_static_bytes);
  ~PikStack();

  SyscallTable& syscalls() { return *syscalls_; }
  pthread_compat::Pthreads& pthreads() { return *pthreads_; }
  PikProcess* process() { return process_.get(); }
  const std::string& console() const { return console_; }

  using AppMain = std::function<int(komp::Runtime&)>;

  /// CreateProcess-style flow (§4.2): load the image, run the
  /// pre-start wrapper (C runtime startup over emulated syscalls),
  /// execute the app with the pristine libomp, exit_group.  Drains the
  /// engine; returns the exit code.
  int run_app(const std::string& name, AppMain app);
  int run_app(const std::string& name, const nautilus::ExecutableImage& image,
              AppMain app);

 private:
  void install_syscalls();
  void prestart(PikProcess& proc);

  PikOs* os_;
  std::uint64_t app_static_bytes_;
  std::unique_ptr<nautilus::BuddyAllocator> phys_;
  std::unique_ptr<nautilus::Loader> loader_;
  std::unique_ptr<nautilus::TlsSupport> tls_;
  std::unique_ptr<linuxmodel::FutexTable> futex_;
  std::unique_ptr<SyscallTable> syscalls_;
  std::unique_ptr<pthread_compat::Pthreads> pthreads_;
  std::unique_ptr<PikProcess> process_;
  std::string console_;
  long next_clone_tid_ = 2;
  // fd table for the /proc/self subset (§4.3: "not implemented with
  // the exception of /proc/self").
  struct OpenFile {
    std::string path;
    std::string content;
    std::size_t offset = 0;
  };
  std::map<int, OpenFile> fds_;
  int next_fd_ = 3;
  std::uint64_t next_mmap_ = 0;
  std::map<std::uint64_t, std::uint64_t> mmaps_;  // addr -> bytes
};

}  // namespace kop::pik

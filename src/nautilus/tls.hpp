// Hardware thread-local storage support (paper §3.4).
//
// libomp and compiler-generated __thread accesses assume x64 hardware
// TLS: %fs-relative addressing with FSBASE pointing at the thread's TLS
// block.  Nautilus reserves %gs for per-CPU state, so application TLS
// uses %fs; the kernel context-switches FSBASE and supports
// arch_prctl(ARCH_SET_FS).  Thread launch clones the .tdata template
// and zeroes .tbss.  This model hands out the blocks and records each
// thread's FSBASE; the switch itself costs nothing extra here, since
// the cost sheet's context_switch_ns already prices a kernel switch.
#pragma once

#include <cstdint>
#include <unordered_map>

namespace kop::nautilus {

struct TlsTemplate {
  std::uint64_t tdata_bytes = 0;  // initialized thread-locals
  std::uint64_t tbss_bytes = 0;   // zero-initialized thread-locals
  std::uint64_t total() const { return tdata_bytes + tbss_bytes; }
};

class BuddyAllocator;

/// Per-kernel TLS manager: hands out TLS blocks and tracks each
/// thread's FSBASE (keyed by an opaque thread id).
class TlsSupport {
 public:
  explicit TlsSupport(BuddyAllocator& allocator) : allocator_(&allocator) {}

  /// Clone tdata + zero tbss for a new thread; returns the FSBASE value
  /// (block address).  Returns 0 for an empty template.
  std::uint64_t create_block(const TlsTemplate& tmpl);
  void destroy_block(std::uint64_t fsbase);

  /// arch_prctl(ARCH_SET_FS) equivalent.
  void set_fsbase(std::uint64_t thread_id, std::uint64_t fsbase);
  /// arch_prctl(ARCH_GET_FS) equivalent; 0 if never set.
  std::uint64_t fsbase(std::uint64_t thread_id) const;

 private:
  BuddyAllocator* allocator_;
  std::unordered_map<std::uint64_t, std::uint64_t> fsbase_by_thread_;
};

}  // namespace kop::nautilus

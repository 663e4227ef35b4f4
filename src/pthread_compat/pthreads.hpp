// The pthreads interface libomp is written against, with the three
// implementations the paper discusses, one tuning each:
//
//  * linux_glibc_tuning()     -- glibc-style pthreads over the Linux
//                                model (the user-level baseline, and
//                                what PIK reuses unmodified inside the
//                                kernel).
//  * nautilus_pte_tuning()    -- the simple port of the embedded PTE
//                                library to Nautilus (Fig. 2a):
//                                portable layering over an OS
//                                abstraction layer, and measurable
//                                per-call indirection overhead.
//  * nautilus_native_tuning() -- the customized implementation (Fig. 2b)
//                                that maps pthread objects directly onto
//                                Nautilus primitives, "aware of the
//                                OpenMP runtime and geared to it".
//
// komp reaches this layer only to create and join its worker threads,
// so that is all it models; the tunings differ in the per-call cost
// and, for PIK, a hook on thread creation.  komp's locks, waits and
// barriers run on osal's primitives, and the PTE port's extra per-call
// cost reaches them through komp's RTK tuning (src/rtk/rtk.cpp), which
// bench/abl_pthread_layers measures.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "osal/osal.hpp"

namespace kop::pthread_compat {

struct PthreadAttr {
  int bound_cpu = -1;  // CPU affinity (-1: OS placement)
};

/// Opaque thread handle (pthread_t).
class Pthread {
  friend class Pthreads;
  osal::Thread* os_thread_ = nullptr;
  void* retval_ = nullptr;
};

/// The pthreads "library".  One instance per assembled stack.
class Pthreads {
 public:
  struct Tuning {
    /// Per-call indirection overhead (the PTE port's platform layers).
    sim::Time op_overhead_ns = 0;
    /// Invoked on every pthread_create (PIK wires the clone() syscall
    /// emulation through this so syscall accounting sees thread
    /// creation traffic).
    std::function<void()> on_thread_create;
  };

  Pthreads(osal::Os& os, Tuning tuning);

  const Tuning& tuning() const { return tuning_; }
  osal::Os& os() { return *os_; }

  // --- pthread_create / join ---
  using StartFn = std::function<void*(void*)>;
  Pthread* create(const PthreadAttr* attr, StartFn start, void* arg);
  void* join(Pthread* t);

  std::uint64_t threads_created() const { return threads_.size(); }

 private:
  /// Charged at the top of every API call (the Fig. 2a layering cost).
  void charge_op();

  osal::Os* os_;
  Tuning tuning_;
  std::vector<std::unique_ptr<Pthread>> threads_;
};

/// Factory helpers for the three paper configurations.
Pthreads::Tuning linux_glibc_tuning();
Pthreads::Tuning nautilus_pte_tuning();
Pthreads::Tuning nautilus_native_tuning();

}  // namespace kop::pthread_compat

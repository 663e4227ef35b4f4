#include "pthread_compat/pthreads.hpp"

#include <string>

namespace kop::pthread_compat {

Pthreads::Pthreads(osal::Os& os, Tuning tuning)
    : os_(&os), tuning_(std::move(tuning)) {}

void Pthreads::charge_op() {
  if (tuning_.op_overhead_ns > 0 && os_->engine().current() != nullptr)
    os_->engine().sleep_for(tuning_.op_overhead_ns);
}

Pthread* Pthreads::create(const PthreadAttr* attr, StartFn start, void* arg) {
  charge_op();
  if (tuning_.on_thread_create) tuning_.on_thread_create();
  auto handle = std::make_unique<Pthread>();
  Pthread* raw = handle.get();
  threads_.push_back(std::move(handle));
  const int cpu = attr != nullptr ? attr->bound_cpu : -1;
  raw->os_thread_ = os_->spawn_thread(
      "pthread-" + std::to_string(threads_.size()),
      [raw, start = std::move(start), arg]() { raw->retval_ = start(arg); },
      cpu);
  return raw;
}

void* Pthreads::join(Pthread* t) {
  charge_op();
  os_->join_thread(t->os_thread_);
  return t->retval_;
}

Pthreads::Tuning linux_glibc_tuning() {
  Pthreads::Tuning t;
  t.op_overhead_ns = 25;  // PLT + glibc wrapper
  return t;
}

Pthreads::Tuning nautilus_pte_tuning() {
  Pthreads::Tuning t;
  // The PTE port "trades platform-dependent optimization for
  // portability" (§3.3): every call descends through the generic
  // library plus the OS abstraction layer we supplied.
  t.op_overhead_ns = 420;
  return t;
}

Pthreads::Tuning nautilus_native_tuning() {
  Pthreads::Tuning t;
  // Customized layer (Fig. 2b): pthread objects are Nautilus objects.
  t.op_overhead_ns = 60;
  return t;
}

}  // namespace kop::pthread_compat

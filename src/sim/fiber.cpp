#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>
#include <stdexcept>
#include <vector>

// AddressSanitizer tracks one shadow stack per host thread, so fiber
// switches need shadow bookkeeping.  GCC's ASan runtime intercepts
// swapcontext itself and manages the shadow across switches natively
// (manual annotations on top of the interceptor corrupt the shadow
// state and cause false stack-buffer-overflow reports after exception
// unwinds).  Clang has no such interceptor, so there the explicit
// __sanitizer_*_switch_fiber annotations below do that job.
#if defined(__clang__) && defined(__has_feature)
#if __has_feature(address_sanitizer)
#define KOP_ASAN_FIBERS 1
#endif
#endif

#ifdef KOP_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save,
                                    const void* stack_bottom,
                                    size_t stack_size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** stack_bottom_old,
                                     size_t* stack_size_old);
}
#endif

// ThreadSanitizer models each host thread as one stack of execution;
// without annotations every ucontext switch looks like wild cross-stack
// access.  The fiber API (GCC >= 10 / Clang libtsan) registers each
// fiber as its own TSan "thread"; flag 0 on switch establishes
// happens-before across the transfer, so the cooperative fibers of one
// engine never appear to race with each other while true cross-engine
// races (shared mutable state touched from two JobRunner workers) are
// still caught.
#if defined(__SANITIZE_THREAD__)
#define KOP_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define KOP_TSAN_FIBERS 1
#endif
#endif

#ifdef KOP_TSAN_FIBERS
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

namespace kop::sim {

namespace {

// The fiber whose stack the host thread is currently executing on.
thread_local Fiber* g_current_fiber = nullptr;

#ifdef KOP_ASAN_FIBERS
// Where the currently suspended *host* context's stack lives, so a
// yielding fiber can announce it as the switch destination.  Written on
// arrival in a fiber (finish_switch_fiber out-params), read on yield.
thread_local const void* g_host_stack_bottom = nullptr;
thread_local size_t g_host_stack_size = 0;

void asan_start_switch(void** fake_save, const void* bottom, size_t size) {
  __sanitizer_start_switch_fiber(fake_save, bottom, size);
}
void asan_finish_switch(void* fake_save, const void** bottom, size_t* size) {
  __sanitizer_finish_switch_fiber(fake_save, bottom, size);
}
#else
void asan_start_switch(void**, const void*, size_t) {}
void asan_finish_switch(void*, const void**, size_t*) {}
#endif

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

// Freelist of retired stack mappings, keyed by total mapped size.  A
// sweep constructs thousands of short-lived engines whose threads each
// mmap/mprotect/munmap a stack; recycling the mapping (guard page and
// all) makes steady-state fiber creation syscall-free.  Thread-local:
// JobRunner workers each keep their own pool, so no locking, and the
// pool dies with its host thread.
struct StackPool {
  struct Entry {
    void* base;
    std::size_t map_bytes;
  };
  static constexpr std::size_t kMaxEntries = 128;
  std::vector<Entry> entries;

  void* take(std::size_t map_bytes) {
    for (std::size_t i = entries.size(); i-- > 0;) {
      if (entries[i].map_bytes == map_bytes) {
        void* base = entries[i].base;
        entries[i] = entries.back();
        entries.pop_back();
        return base;
      }
    }
    return nullptr;
  }

  bool put(void* base, std::size_t map_bytes) {
    if (entries.size() >= kMaxEntries) return false;
    entries.push_back(Entry{base, map_bytes});
    return true;
  }

  ~StackPool() {
    for (const Entry& e : entries) ::munmap(e.base, e.map_bytes);
  }
};

thread_local StackPool g_stack_pool;

}  // namespace

Fiber::Fiber(Entry entry, std::size_t stack_bytes) : entry_(std::move(entry)) {
  const std::size_t ps = page_size();
  const std::size_t usable = round_up(stack_bytes, ps);
  map_bytes_ = usable + ps;  // one guard page below the stack
  void* base = g_stack_pool.take(map_bytes_);
  if (base == nullptr) {
    base = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    if (::mprotect(base, ps, PROT_NONE) != 0) {
      ::munmap(base, map_bytes_);
      throw std::runtime_error("fiber: mprotect guard page failed");
    }
  }
  stack_base_ = base;

  if (getcontext(&context_) != 0) {
    ::munmap(base, map_bytes_);
    throw std::runtime_error("fiber: getcontext failed");
  }
  context_.uc_stack.ss_sp = static_cast<char*>(base) + ps;
  context_.uc_stack.ss_size = usable;
  context_.uc_link = nullptr;  // finish is handled in the trampoline
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
#ifdef KOP_TSAN_FIBERS
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#ifdef KOP_TSAN_FIBERS
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  // Recycle only stacks with no live frames: a fiber destroyed while
  // suspended mid-run still has frames (and, under ASan, poisoned
  // shadow) on its stack, so that mapping goes back to the kernel.
  const bool clean = finished_ || !started_;
  if (stack_base_ != nullptr &&
      !(clean && g_stack_pool.put(stack_base_, map_bytes_))) {
    ::munmap(stack_base_, map_bytes_);
  }
}

void Fiber::trampoline() {
  // First arrival on this fiber's stack: tell ASan the switch landed
  // and remember the resumer's stack for the trip back.
#ifdef KOP_ASAN_FIBERS
  asan_finish_switch(nullptr, &g_host_stack_bottom, &g_host_stack_size);
#endif
  Fiber* self = g_current_fiber;
  try {
    self->entry_();
  } catch (...) {
    self->pending_exception_ = std::current_exception();
  }
  self->finished_ = true;
  self->running_ = false;
  g_current_fiber = nullptr;
  // Return to the resumer; this fiber never runs again (a null
  // fake-stack save lets ASan retire this stack's fake frames).
#ifdef KOP_ASAN_FIBERS
  asan_start_switch(nullptr, g_host_stack_bottom, g_host_stack_size);
#endif
#ifdef KOP_TSAN_FIBERS
  __tsan_switch_to_fiber(self->tsan_return_, 0);
#endif
  swapcontext(&self->context_, &self->return_context_);
  // Unreachable.
}

void Fiber::resume() {
  if (finished_) throw std::logic_error("fiber: resume on finished fiber");
  if (running_) throw std::logic_error("fiber: resume on running fiber");
  Fiber* prev = g_current_fiber;
  g_current_fiber = this;
  running_ = true;
  started_ = true;
  void* fake = nullptr;
  asan_start_switch(&fake, context_.uc_stack.ss_sp, context_.uc_stack.ss_size);
#ifdef KOP_TSAN_FIBERS
  tsan_return_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  swapcontext(&return_context_, &context_);
  asan_finish_switch(fake, nullptr, nullptr);
  g_current_fiber = prev;
  if (pending_exception_) {
    auto ex = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(ex);
  }
}

void Fiber::yield() {
  Fiber* self = g_current_fiber;
  if (self == nullptr) throw std::logic_error("fiber: yield outside a fiber");
  self->running_ = false;
  g_current_fiber = nullptr;
  void* fake = nullptr;
#ifdef KOP_ASAN_FIBERS
  asan_start_switch(&fake, g_host_stack_bottom, g_host_stack_size);
#endif
#ifdef KOP_TSAN_FIBERS
  __tsan_switch_to_fiber(self->tsan_return_, 0);
#endif
  swapcontext(&self->context_, &self->return_context_);
  // Resumed again.
#ifdef KOP_ASAN_FIBERS
  asan_finish_switch(fake, &g_host_stack_bottom, &g_host_stack_size);
#else
  (void)fake;
#endif
  g_current_fiber = self;
  self->running_ = true;
}

Fiber* Fiber::current() { return g_current_fiber; }

}  // namespace kop::sim

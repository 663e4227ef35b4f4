#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <exception>
#include <new>
#include <stdexcept>
#include <vector>

#if !defined(__x86_64__)
#error "sim/fiber.cpp: port kop_sim_fiber_switch and its first frame to this architecture"
#endif

// AddressSanitizer tracks one stack per host thread and cannot see a
// fiber switch, so every switch is announced with the
// __sanitizer_*_switch_fiber pair (GCC and Clang alike).  Without them
// ASan keeps the host thread's stack bounds while a fiber runs; the
// __asan_handle_no_return it calls on every throw then refuses to clear
// the unwound frames' redzones, and the next call that reaches down
// into them reports a stack-buffer-overflow.
#if defined(__SANITIZE_ADDRESS__)
#define KOP_ASAN_FIBERS 1
#elif defined(__has_feature)
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
void __asan_unpoison_memory_region(const volatile void* addr, size_t size);
}
#endif

// ThreadSanitizer models each host thread as one stack of execution;
// without annotations every fiber switch looks like wild cross-stack
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

// Pushes the SysV callee-saved state (rbp, rbx, r12-r15, then MXCSR and
// the x87 control word in one 8-byte slot) onto the running stack,
// stores that stack pointer through save_sp, loads load_sp, pops the
// same state from there and returns on the loaded stack.  Everything
// else is caller-saved, so the compiler already treats it as
// clobbered by the call.  The signal mask stays untouched, so a switch
// never enters the kernel.  No CET shadow stack is switched, so fibers
// cannot run with user shadow stacks enabled.
extern "C" __attribute__((visibility("hidden"))) void kop_sim_fiber_switch(
    void** save_sp, void* load_sp);

asm(".pushsection .text\n"
    ".globl kop_sim_fiber_switch\n"
    ".hidden kop_sim_fiber_switch\n"
    ".type kop_sim_fiber_switch, @function\n"
    ".p2align 4\n"
    "kop_sim_fiber_switch:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  subq $8, %rsp\n"
    "  stmxcsr (%rsp)\n"
    "  fnstcw 4(%rsp)\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  ldmxcsr (%rsp)\n"
    "  fldcw 4(%rsp)\n"
    "  addq $8, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  ret\n"
    ".size kop_sim_fiber_switch, .-kop_sim_fiber_switch\n"
    ".popsection\n");

namespace kop::sim {

namespace {

// The frame kop_sim_fiber_switch pops, lowest address first, as a new
// fiber's stack holds it before the first resume.
struct FirstFrame {
  std::uint32_t mxcsr;
  std::uint16_t x87_cw;
  std::uint16_t pad;
  void* callee_saved[6];  // r15, r14, r13, r12, rbx, rbp
  void (*entry)();        // the switch's ret lands here
  void* entry_return;     // entry's return address: null ends backtraces
};
// Placed flush against the 16-byte-aligned stack top, the frame leaves
// rsp % 16 == 8 when `entry` starts, as if it had been called.
static_assert(sizeof(FirstFrame) % 16 == 8);

// The fiber whose stack the host thread is currently executing on.
thread_local Fiber* g_current_fiber = nullptr;

// An exception that escaped a fiber's entry function, on its way to the
// resume() the finished fiber returns to.  One slot per host thread, not
// per fiber: after a switch_to() the fiber that finishes is not the one
// that resume() entered.  The resumer takes it before anything else can
// switch, so nested fibers never find it occupied.
thread_local std::exception_ptr g_escaped;

#ifdef KOP_ASAN_FIBERS
// Set by switch_to() for the switch it makes.  The fiber that switch
// lands on already holds the resumer's stack it took over from the
// blocker; ASan reports the blocker's stack as the one the switch came
// from, and that must not replace it.
thread_local bool g_asan_inherited = false;
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
// pool dies with its host thread.  It holds the stacks of the largest
// team a point spawns (192 threads on 8XEON, plus helpers), so the next
// point maps none; a retained stack costs its address range and the
// pages its last fiber touched, which were live at that point's peak.
struct StackPool {
  struct Entry {
    void* base;
    std::size_t map_bytes;
  };
  static constexpr std::size_t kMaxEntries = 1024;
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
  char* const top = static_cast<char*>(base) + map_bytes_;
#ifdef KOP_ASAN_FIBERS
  // A pooled stack still carries the redzones of its last fiber's
  // frames that never returned (the trampoline's among them).
  __asan_unpoison_memory_region(top - usable, usable);
#endif
  auto* frame = new (top - sizeof(FirstFrame))
      FirstFrame{0, 0, 0, {}, &Fiber::trampoline, nullptr};
  // The fiber starts with the constructor's floating-point control
  // state, as a freshly created thread inherits its creator's.
  asm volatile("stmxcsr %0\n\tfnstcw %1"
               : "=m"(frame->mxcsr), "=m"(frame->x87_cw));
  sp_ = frame;
#ifdef KOP_TSAN_FIBERS
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#ifdef KOP_TSAN_FIBERS
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  // Recycle only stacks with no live frames: a fiber destroyed while
  // suspended mid-run still has frames on its stack, so that mapping
  // goes back to the kernel.
  const bool clean = finished_ || !started_;
  if (stack_base_ != nullptr &&
      !(clean && g_stack_pool.put(stack_base_, map_bytes_))) {
    ::munmap(stack_base_, map_bytes_);
  }
}

void Fiber::landed(void* fake_stack) {
  // The first code on this fiber's stack after a switch into it: tell
  // ASan the switch landed and, after a resume(), remember the resumer's
  // stack for the trip back.
#ifdef KOP_ASAN_FIBERS
  const void* bottom = nullptr;
  std::size_t size = 0;
  __sanitizer_finish_switch_fiber(fake_stack, &bottom, &size);
  if (!g_asan_inherited) {
    asan_return_bottom_ = bottom;
    asan_return_size_ = size;
  }
  g_asan_inherited = false;
#else
  (void)fake_stack;
#endif
}

void Fiber::trampoline() {
  Fiber* self = g_current_fiber;
  self->landed(nullptr);
  try {
    self->entry_();
  } catch (...) {
    g_escaped = std::current_exception();
  }
  self->finished_ = true;
  self->running_ = false;
  g_current_fiber = nullptr;
  // Return to the resumer; this fiber never runs again (a null
  // fake-stack save lets ASan retire this stack's fake frames).
#ifdef KOP_ASAN_FIBERS
  __sanitizer_start_switch_fiber(nullptr, self->asan_return_bottom_,
                                 self->asan_return_size_);
#endif
#ifdef KOP_TSAN_FIBERS
  __tsan_switch_to_fiber(self->tsan_return_, 0);
#endif
  kop_sim_fiber_switch(&self->sp_, self->return_sp_);
  // Unreachable.
}

void Fiber::resume() {
  if (finished_) throw std::logic_error("fiber: resume on finished fiber");
  if (running_) throw std::logic_error("fiber: resume on running fiber");
  Fiber* prev = g_current_fiber;
  g_current_fiber = this;
  running_ = true;
  started_ = true;
#ifdef KOP_ASAN_FIBERS
  void* fake = nullptr;
  const std::size_t guard = page_size();
  __sanitizer_start_switch_fiber(&fake, static_cast<char*>(stack_base_) + guard,
                                 map_bytes_ - guard);
#endif
#ifdef KOP_TSAN_FIBERS
  tsan_return_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  kop_sim_fiber_switch(&return_sp_, sp_);
#ifdef KOP_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
  g_current_fiber = prev;
  if (g_escaped) {
    auto ex = g_escaped;
    g_escaped = nullptr;
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
  __sanitizer_start_switch_fiber(&fake, self->asan_return_bottom_,
                                 self->asan_return_size_);
#endif
#ifdef KOP_TSAN_FIBERS
  __tsan_switch_to_fiber(self->tsan_return_, 0);
#endif
  kop_sim_fiber_switch(&self->sp_, self->return_sp_);
  // Resumed or switched to again, possibly from a different stack; the
  // switcher already made this fiber current and running.
  self->landed(fake);
}

void Fiber::switch_to(Fiber& next) {
  Fiber* self = g_current_fiber;
  if (self == nullptr) throw std::logic_error("fiber: switch_to outside a fiber");
  if (next.finished_) throw std::logic_error("fiber: switch_to a finished fiber");
  if (next.running_) throw std::logic_error("fiber: switch_to a running fiber");
  self->running_ = false;
  g_current_fiber = &next;
  next.running_ = true;
  next.started_ = true;
  // `next` takes over this fiber's resumer.
  next.return_sp_ = self->return_sp_;
  void* fake = nullptr;
#ifdef KOP_ASAN_FIBERS
  next.asan_return_bottom_ = self->asan_return_bottom_;
  next.asan_return_size_ = self->asan_return_size_;
  g_asan_inherited = true;
  const std::size_t guard = page_size();
  __sanitizer_start_switch_fiber(
      &fake, static_cast<char*>(next.stack_base_) + guard,
      next.map_bytes_ - guard);
#endif
#ifdef KOP_TSAN_FIBERS
  next.tsan_return_ = self->tsan_return_;
  __tsan_switch_to_fiber(next.tsan_fiber_, 0);
#endif
  kop_sim_fiber_switch(&self->sp_, next.sp_);
  self->landed(fake);
}

Fiber* Fiber::current() { return g_current_fiber; }

}  // namespace kop::sim

// Cooperative fibers, used to give every simulated thread its own C++
// call stack.
//
// A Fiber runs an arbitrary callable on a private mmap'd stack with a
// guard page.  Control transfers are explicit: resume() enters a fiber,
// Fiber::yield() goes back to its resumer, and Fiber::switch_to() passes
// control straight to another fiber, which takes over the resumer.  The
// engine resumes a fiber when its wake event fires; a simulated thread
// that blocks either yields back or, when the next event is another
// thread's wake, switches straight to that thread.
//
// Exceptions thrown by an entry function are captured and rethrown by
// the resume() that the finished fiber returns to.  After switch_to()
// that is not the resume() of the fiber that threw: the exception waits
// in one slot per host thread, not in the fiber.
//
// A switch saves and restores only the callee-saved registers, MXCSR
// and the x87 control word (one x86-64 routine in fiber.cpp), so it
// never enters the kernel.  The signal mask is not part of a fiber.
#pragma once

#include <cstddef>
#include <functional>

namespace kop::sim {

class Fiber {
 public:
  using Entry = std::function<void()>;

  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  explicit Fiber(Entry entry, std::size_t stack_bytes = kDefaultStackBytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Transfer control into the fiber.  Returns when the fiber -- or a
  /// fiber it switched to -- yields, or when one of them finishes.
  /// Rethrows any exception that escaped the finished fiber's entry
  /// function.  Must not be called on a finished fiber.
  void resume();

  /// Transfer control from the currently running fiber back to its
  /// resumer.  Must be called from inside a fiber.
  static void yield();

  /// Transfer control from the currently running fiber straight to
  /// `next`, which takes over the running fiber's resumer: when `next`
  /// yields or finishes, the resume() that entered the running fiber
  /// returns.  Returns when the running fiber is resumed or switched to
  /// again.  Must be called from inside a fiber; `next` must be neither
  /// finished nor running.
  static void switch_to(Fiber& next);

  /// The fiber currently executing on this host thread (nullptr if the
  /// host is running ordinary, non-fiber code).
  static Fiber* current();

  bool finished() const { return finished_; }
  bool running() const { return running_; }

 private:
  static void trampoline();
  void landed(void* fake_stack);

  Entry entry_;
  void* stack_base_ = nullptr;   // mmap base (guard page at the bottom)
  std::size_t map_bytes_ = 0;    // total mapped size incl. guard
  void* sp_ = nullptr;           // fiber's saved stack pointer
  void* return_sp_ = nullptr;    // resumer's saved stack pointer
  bool started_ = false;
  bool finished_ = false;
  bool running_ = false;
  // Sanitizer fiber state (always present so the ABI does not depend
  // on the sanitizer config; unused when the sanitizer is off).  Like
  // return_sp_, the resumer's entries pass on with switch_to().
  const void* asan_return_bottom_ = nullptr;  // resumer's stack, for yield
  std::size_t asan_return_size_ = 0;
  void* tsan_fiber_ = nullptr;   // __tsan_create_fiber handle
  void* tsan_return_ = nullptr;  // resumer's TSan fiber, for yield
};

}  // namespace kop::sim

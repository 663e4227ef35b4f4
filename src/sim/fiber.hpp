// Cooperative fibers built on ucontext, used to give every simulated
// thread its own C++ call stack.
//
// A Fiber runs an arbitrary callable on a private mmap'd stack with a
// guard page.  Control transfers are explicit (resume / Fiber::yield);
// the engine resumes a fiber when its wake event fires, and the fiber
// yields back whenever the simulated thread blocks.  Exceptions thrown
// by the entry function are captured and rethrown in the resumer.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <exception>
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

  /// Transfer control into the fiber.  Returns when the fiber yields or
  /// its entry function returns.  Rethrows any exception that escaped
  /// the entry function.  Must not be called on a finished fiber.
  void resume();

  /// Transfer control from the currently running fiber back to its
  /// resumer.  Must be called from inside a fiber.
  static void yield();

  /// The fiber currently executing on this host thread (nullptr if the
  /// host is running ordinary, non-fiber code).
  static Fiber* current();

  bool finished() const { return finished_; }
  bool running() const { return running_; }

 private:
  static void trampoline();

  Entry entry_;
  void* stack_base_ = nullptr;   // mmap base (guard page at the bottom)
  std::size_t map_bytes_ = 0;    // total mapped size incl. guard
  ucontext_t context_{};         // fiber's own context
  ucontext_t return_context_{};  // where to go on yield/finish
  bool started_ = false;
  bool finished_ = false;
  bool running_ = false;
  std::exception_ptr pending_exception_;
  // ThreadSanitizer fiber context (always present so the ABI does not
  // depend on the sanitizer config; null when TSan is off).
  void* tsan_fiber_ = nullptr;   // __tsan_create_fiber handle
  void* tsan_return_ = nullptr;  // resumer's TSan fiber, for yield
};

}  // namespace kop::sim

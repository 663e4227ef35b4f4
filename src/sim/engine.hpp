// The discrete-event simulation engine.
//
// The engine owns a virtual clock, an event queue ordered by
// (time, key, sequence) -- a binary min-heap (see sim/event_queue.hpp)
// -- and a set of SimThreads, each backed by a Fiber.
// Higher layers (the OS models) decide *when* a thread runs; the engine
// only provides the mechanics:
//
//   * spawn()            create a simulated thread (initially blocked)
//   * wake() / wake_at() make a blocked thread runnable at a time
//   * block()            called from inside a thread: suspend until woken
//   * sleep_for()        block for a fixed virtual duration
//   * post_at/post_in()  run a plain callback at a time (timers, IRQs)
//
// Wakeups are generation-counted: each block() bumps the thread's
// generation and a wake targets the generation it observed, so a stale
// wake (e.g., a timeout racing a signal) is ignored.  This gives the OS
// layers race-free timed waits without extra bookkeeping.
//
// Run-ahead: when a sleep_for() wake is strictly earlier than every
// queued event (or nothing is queued) and no race checker is attached,
// the engine dispatches that wake in place -- the same seq, sched key,
// peak depth, clock, digest, generation and pct redraw as the queue
// round trip -- and the thread carries on without a push, a pop or a
// fiber switch.  Every simulated number and digest is the same either
// way; only Stats::run_ahead and queue_allocs tell the paths apart.
// A wake tying a queued event takes the queue (under FIFO the queued
// one has the smaller seq).  With a race checker every wake takes the
// queue, since enqueue's release snapshot advances the poster's clock.
//
// Determinism: events at equal times fire in posting order *under the
// default FIFO ready-queue policy*, and all randomness flows through
// the engine-owned Rng.  The ready-queue policy is pluggable: a
// SchedConfig selects how ties between events at the same virtual
// instant are broken (FIFO, seeded-random shuffle, or a PCT-style
// priority scheme).  Any (policy, sched seed) pair is itself fully
// deterministic -- the same pair replays the same interleaving
// bit-for-bit -- which is what lets the schedfuzz harness sweep seeds
// and replay failures.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace kop::sim {

class Engine;
class RaceChecker;

/// How the engine breaks ties between events at the same virtual time
/// (the "ready queue" of the simulated instant).
enum class SchedPolicy {
  kFifo,    // posting order (the historical, calibrated behavior)
  kRandom,  // seeded-random order among same-time events
  kPct,     // PCT-style: random per-thread priorities, occasionally
            // perturbed; high-priority threads run first
};

const char* sched_policy_name(SchedPolicy p);

/// Selects one deterministic interleaving.  The seed feeds a dedicated
/// scheduling Rng, fully independent of the cost-model Rng, so FIFO
/// runs are bit-identical with or without this feature.
struct SchedConfig {
  SchedPolicy policy = SchedPolicy::kFifo;
  std::uint64_t seed = 0;
};

/// A simulated thread: a fiber plus scheduling metadata.  Created via
/// Engine::spawn(); destroyed with the engine.
class SimThread {
 public:
  std::uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  bool finished() const { return fiber_->finished(); }
  bool blocked() const { return blocked_; }

  /// Opaque slot for the OS layer that owns this thread (e.g., the
  /// nautilus::Thread or linuxmodel::Thread wrapping it).
  void* user_data = nullptr;

 private:
  friend class Engine;
  SimThread(Engine& eng, std::uint64_t id, std::string name,
            std::function<void()> body, std::size_t stack_bytes);

  Engine& engine_;
  std::uint64_t id_;
  std::string name_;
  std::unique_ptr<Fiber> fiber_;
  bool blocked_ = true;       // threads start blocked until first wake
  std::uint64_t wake_generation_ = 0;
  std::uint64_t sched_priority_ = 0;  // PCT priority (higher runs first)
};

/// Handle used to target a wake at a particular block() instance.
struct WakeToken {
  SimThread* thread = nullptr;
  std::uint64_t generation = 0;
};

class Engine {
 public:
  explicit Engine(std::uint64_t rng_seed = 42, SchedConfig sched = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }
  Rng& rng() { return rng_; }
  const SchedConfig& sched() const { return sched_; }

  /// Create a simulated thread.  The thread starts *blocked*; call
  /// wake() (typically from an OS scheduler) to start it.
  /// `stack_bytes` 0 uses Fiber's 256 KiB default.
  SimThread* spawn(std::string name, std::function<void()> body,
                   std::size_t stack_bytes = 0);

  /// Make `t` runnable now / at `when`.  Returns false (and does
  /// nothing) if the thread has already finished.
  bool wake(SimThread* t) { return wake_at(t, now_); }
  bool wake_at(SimThread* t, Time when);

  /// Wake only if the thread is still in the block() instance the token
  /// was captured for.  Used for timeouts.
  void wake_token_at(WakeToken tok, Time when);

  /// Run a plain callback at / after a time.  Callbacks run on the main
  /// context (not inside any fiber) and may wake threads or post more
  /// events.
  void post_at(Time when, std::function<void()> fn);
  void post_in(Time delta, std::function<void()> fn) { post_at(now_ + delta, std::move(fn)); }

  /// --- Fiber-side API (must be called from a running SimThread) ---

  /// The currently running simulated thread (nullptr on main context).
  SimThread* current() const { return current_; }

  /// Id of the current simulated thread; 0 on the main context.
  std::uint64_t current_tid() const { return current_ ? current_->id() : 0; }

  /// Capture a token for the *next* block() on the current thread.
  /// Pattern: tok = arm_wake_token(); <publish tok>; block();
  WakeToken arm_wake_token();

  /// Suspend the current thread until a matching wake arrives.
  void block();

  /// Suspend for `ns` of virtual time.  Runs ahead (see the header
  /// comment) when the wake would be the next event dispatched.
  void sleep_for(Time ns);

  /// Yield to any other work scheduled at the current instant (the
  /// thread is immediately rescheduled; useful for modelled spin loops).
  void yield_now() { sleep_for(0); }

  /// --- Race detection ---

  /// Attach a happens-before race detector.  Must be called before any
  /// threads are spawned or events posted; all subsequent wakes carry
  /// vector-clock edges and the annotation hooks in sim/racecheck.hpp
  /// become live.  Idempotent.
  RaceChecker& enable_racecheck();
  /// The attached detector, or nullptr when disabled (the default).
  RaceChecker* racecheck() const { return racecheck_.get(); }

  /// --- Run loop ---

  /// Process events until the queue drains.  Throws SimDeadlock if
  /// unfinished threads remain blocked with no pending events.
  void run();

  std::size_t live_thread_count() const;

  /// Run-loop statistics (engine health / wall-clock budgeting).
  struct Stats {
    std::uint64_t events_dispatched = 0;
    std::uint64_t stale_wakes = 0;      // generation-filtered wakeups
    std::uint64_t threads_spawned = 0;
    std::size_t peak_queue_depth = 0;
    /// Heap allocations made by the event queue after warm-up; a warm
    /// engine should dispatch with this not moving (arena reuse).
    std::uint64_t queue_allocs = 0;
    /// sleep_for() wakes dispatched in place, without the queue (a
    /// subset of events_dispatched).  Deterministic, but it describes
    /// engine mechanics, not the simulated run.
    std::uint64_t run_ahead = 0;
    /// FNV-1a fold of every dispatched event's (at, thread id, seq).
    /// Two runs of the same workload under the same (policy, seed) must
    /// end with identical digests -- the machine-checkable form of the
    /// dispatch-order determinism guarantee (harness/propcheck asserts
    /// it over random experiment points).
    std::uint64_t dispatch_digest = 0xcbf29ce484222325ULL;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class RaceChecker;

  /// Tie-break key for an event being posted now (depends on policy).
  std::uint64_t sched_key(const SimThread* target);

  /// Push with stats upkeep (peak depth is tracked here, on push, since
  /// the depth grows nowhere else; sleep_for's run-ahead raises it to
  /// what the push it skips would have reached).
  void enqueue(Event&& ev);

  /// What dispatching an event means, wherever it is dispatched: count
  /// it, move the clock to `at` and fold (at, thread id, seq) into the
  /// digest; then, if `t` is still blocked in the block() that
  /// `generation` names, unblock it, invalidate its other pending wakes
  /// and apply pct's priority change point.  Returns the thread to
  /// resume, or nullptr (callback, finished thread, stale or duplicate
  /// wake).  dispatch() and sleep_for()'s run-ahead both call it.
  SimThread* settle(Time at, SimThread* t, std::uint64_t generation,
                    std::uint64_t seq);
  void dispatch(Event& ev);
  [[noreturn]] void report_deadlock() const;

  Time now_ = 0;
  Rng rng_;
  SchedConfig sched_;
  Rng sched_rng_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_thread_id_ = 1;
  EventQueue queue_;
  std::vector<std::unique_ptr<SimThread>> threads_;
  SimThread* current_ = nullptr;
  Stats stats_;
  std::unique_ptr<RaceChecker> racecheck_;
};

/// Thrown by Engine::run() when all events drain but simulated threads
/// remain blocked; the message lists the stuck threads.
class SimDeadlock : public std::runtime_error {
 public:
  explicit SimDeadlock(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace kop::sim

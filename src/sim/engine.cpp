#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sim/racecheck.hpp"

namespace kop::sim {

const char* sched_policy_name(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kFifo: return "fifo";
    case SchedPolicy::kRandom: return "random";
    case SchedPolicy::kPct: return "pct";
  }
  return "?";
}

SimThread::SimThread(Engine& eng, std::uint64_t id, std::string name,
                     std::function<void()> body, std::size_t stack_bytes)
    : engine_(eng), id_(id), name_(std::move(name)) {
  fiber_ = std::make_unique<Fiber>(std::move(body), stack_bytes);
}

Engine::Engine(std::uint64_t rng_seed, SchedConfig sched)
    : rng_(rng_seed),
      sched_(sched),
      // Offset the seed so sched seed 0 and rng seed 0 decorrelate.
      sched_rng_(sched.seed ^ 0xc2b2ae3d27d4eb4fULL) {}

Engine::~Engine() = default;

RaceChecker& Engine::enable_racecheck() {
  if (!racecheck_) racecheck_ = std::make_unique<RaceChecker>(*this);
  return *racecheck_;
}

SimThread* Engine::spawn(std::string name, std::function<void()> body,
                         std::size_t stack_bytes) {
  if (stack_bytes == 0) stack_bytes = Fiber::kDefaultStackBytes;
  auto thread = std::unique_ptr<SimThread>(new SimThread(
      *this, next_thread_id_++, std::move(name), std::move(body), stack_bytes));
  SimThread* raw = thread.get();
  if (sched_.policy == SchedPolicy::kPct)
    raw->sched_priority_ = sched_rng_.next_u64();
  if (racecheck_)
    racecheck_->on_spawn(raw->id(), raw->name(), current_tid());
  threads_.push_back(std::move(thread));
  ++stats_.threads_spawned;
  return raw;
}

std::uint64_t Engine::sched_key(const SimThread* target) {
  switch (sched_.policy) {
    case SchedPolicy::kFifo:
      return 0;
    case SchedPolicy::kRandom:
      return sched_rng_.next_u64();
    case SchedPolicy::kPct:
      // Higher thread priority -> smaller key -> dispatched first.
      // Callback events draw a fresh key (timers behave like devices
      // with no stable priority).
      return target != nullptr ? ~target->sched_priority_
                               : sched_rng_.next_u64();
  }
  return 0;
}

void Engine::enqueue(Event&& ev) {
  // Race checking costs exactly this one (cold) branch when disabled:
  // ev.hb stays a default-constructed null shared_ptr, untouched.
  if (racecheck_) [[unlikely]]
    ev.hb = racecheck_->release_snapshot(current_tid());
  queue_.push(std::move(ev));
  stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, queue_.size());
}

void Engine::enqueue_wake(SimThread* t, Time when, std::uint64_t generation) {
  if (when < now_) when = now_;
  const std::uint64_t seq = next_seq_++;
  const std::uint64_t key = sched_key(t);
  if (racecheck_) [[unlikely]] {
    // The poster's clock rides along, so the wake takes the slab.
    Event ev;
    ev.at = when;
    ev.seq = seq;
    ev.key = key;
    ev.thread = t;
    ev.generation = generation;
    enqueue(std::move(ev));
    return;
  }
  queue_.push_wake({when, key, seq, t, generation});
  stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, queue_.size());
}

bool Engine::wake_at(SimThread* t, Time when) {
  if (t == nullptr) throw std::logic_error("engine: wake of null thread");
  if (t->finished()) return false;
  enqueue_wake(t, when, t->wake_generation_);
  return true;
}

void Engine::wake_token_at(WakeToken tok, Time when) {
  if (tok.thread == nullptr) return;
  enqueue_wake(tok.thread, when, tok.generation);
}

void Engine::post_at(Time when, std::function<void()> fn) {
  if (when < now_) when = now_;
  Event ev;
  ev.at = when;
  ev.seq = next_seq_++;
  ev.key = sched_key(nullptr);
  ev.fn = std::move(fn);
  enqueue(std::move(ev));
}

WakeToken Engine::arm_wake_token() {
  if (current_ == nullptr)
    throw std::logic_error("engine: arm_wake_token outside a sim thread");
  return WakeToken{current_, current_->wake_generation_};
}

void Engine::block() {
  SimThread* self = current_;
  if (self == nullptr) throw std::logic_error("engine: block outside a sim thread");
  self->blocked_ = true;
  continue_with(self, settle_wakes());
}

void Engine::continue_with(SimThread* self, SimThread* next) {
  // Hand off: when dispatch found a woken thread, switch straight to it;
  // it takes over this fiber's resumer (run()).  Otherwise yield back to
  // run().
  if (next == self) return;  // this thread's own wake was next
  if (next != nullptr) {
    ++stats_.handoffs;
    current_ = next;
    Fiber::switch_to(*next->fiber_);
  } else {
    Fiber::yield();
  }
  // Resumed by run() or by a handoff; settle() bumped the generation.
}

void Engine::sleep_for(Time ns) {
  SimThread* self = current_;
  if (self == nullptr) throw std::logic_error("engine: sleep outside a sim thread");
  const Time at = now_ + (ns < 0 ? 0 : ns);
  const bool queued = !queue_.empty() && queue_.next_time() <= at;
  // The queue and block(): a race checker needs enqueue's release
  // snapshot, or a callback (or a race-checked wake) is due no later
  // than this wake.
  if (racecheck_ || (queued && !queue_.wake_next())) {
    wake_at(self, at);
    block();
    return;
  }
  // What the push of this wake does -- take a seq, draw the key, grow
  // the peak depth -- and then what block() does.
  const std::uint64_t seq = next_seq_++;
  const std::uint64_t key = sched_key(self);
  stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, queue_.size() + 1);
  self->blocked_ = true;
  if (queued) {
    // A plain wake leads the queue: push this wake and pop the earliest
    // in one replay, then dispatch as block() would.
    const EventQueue::Wake w =
        queue_.push_pop_wake({at, key, seq, self, self->wake_generation_});
    SimThread* next = settle(w.at, w.thread, w.generation, w.seq);
    continue_with(self, next != nullptr ? next : settle_wakes());
    return;
  }
  // Run ahead: the wake is strictly earlier than every queued event, so
  // run() would pop it next and resume this thread; dispatch it here and
  // stay on this fiber.  A queued event at the same time (smaller seq
  // under FIFO) takes the queue.
  settle(at, self, self->wake_generation_, seq);
  ++stats_.run_ahead;
}

SimThread* Engine::settle(Time at, SimThread* t, std::uint64_t generation,
                          std::uint64_t seq) {
  ++stats_.events_dispatched;
  now_ = at;
  // Order digest: fold the dispatch identity so any reordering --
  // queue bug, policy drift, nondeterministic tie-break -- changes the
  // final stats().dispatch_digest.
  std::uint64_t d = stats_.dispatch_digest;
  d = (d ^ static_cast<std::uint64_t>(at)) * 0x100000001b3ULL;
  d = (d ^ (t != nullptr ? t->id() : 0)) * 0x100000001b3ULL;
  d = (d ^ seq) * 0x100000001b3ULL;
  stats_.dispatch_digest = d;
  if (t == nullptr || t->finished()) return nullptr;
  // Stale wake: the thread already left the block() this wake targeted.
  if (generation != t->wake_generation_) {
    ++stats_.stale_wakes;
    return nullptr;
  }
  if (!t->blocked_) return nullptr;  // duplicate wake for the same generation
  t->blocked_ = false;
  t->wake_generation_++;  // invalidate other pending wakes for that block
  if (sched_.policy == SchedPolicy::kPct) {
    // PCT-style priority change point: occasionally re-draw the
    // resumed thread's priority so a single high-priority thread
    // cannot dominate the whole run.
    if (sched_rng_.bernoulli(1.0 / 32.0))
      t->sched_priority_ = sched_rng_.next_u64();
  }
  return t;
}

SimThread* Engine::settle_wakes() {
  while (queue_.wake_next()) {
    const EventQueue::Wake w = queue_.pop_wake();
    if (SimThread* t = settle(w.at, w.thread, w.generation, w.seq)) return t;
  }
  return nullptr;
}

void Engine::run() {
  while (!queue_.empty()) {
    SimThread* t = settle_wakes();
    if (t == nullptr) {
      if (queue_.empty()) break;
      // A callback, or a wake carrying the race checker's clock.
      Event ev = queue_.pop();
      t = settle(ev.at, ev.thread, ev.generation, ev.seq);
      if (ev.fn) {
        if (racecheck_) [[unlikely]]
          racecheck_->on_callback(ev.hb);
        ev.fn();
        continue;
      }
      if (t == nullptr) continue;
      if (racecheck_) [[unlikely]]
        racecheck_->on_resume(t->id(), ev.hb);
    }
    SimThread* prev = current_;
    current_ = t;
    t->fiber_->resume();
    current_ = prev;
  }
  stats_.queue_allocs = queue_.allocs();
  if (live_thread_count() > 0) report_deadlock();
}

std::size_t Engine::live_thread_count() const {
  std::size_t n = 0;
  for (const auto& t : threads_) {
    if (!t->finished()) ++n;
  }
  return n;
}

void Engine::report_deadlock() const {
  std::ostringstream oss;
  oss << "simulation deadlock at t=" << now_ << "ns";
  if (sched_.policy != SchedPolicy::kFifo) {
    oss << " [sched=" << sched_policy_name(sched_.policy) << " seed="
        << sched_.seed << "]";
  }
  oss << "; blocked threads:";
  for (const auto& t : threads_) {
    if (!t->finished()) oss << " [" << t->id() << ":" << t->name() << "]";
  }
  throw SimDeadlock(oss.str());
}

}  // namespace kop::sim

#include "komp/barrier.hpp"

#include <stdexcept>

#include "sim/racecheck.hpp"

namespace kop::komp {

TeamBarrier::TeamBarrier(osal::Os& os, int parties,
                         RuntimeTuning::BarrierAlgo algo, sim::Time spin_ns,
                         sim::Time step_extra_ns)
    : os_(&os), parties_(parties), algo_(algo), spin_ns_(spin_ns),
      step_extra_ns_(step_extra_ns), central_gate_(os) {
  if (parties <= 0) throw std::invalid_argument("TeamBarrier: parties <= 0");
  slots_.reserve(static_cast<std::size_t>(parties));
  for (int i = 0; i < parties; ++i) slots_.emplace_back(os);
}

void TeamBarrier::charge_step() {
  const sim::Time cost =
      os_->machine().cacheline_transfer_ns / 2 + step_extra_ns_;
  if (cost > 0) os_->engine().sleep_for(cost);
}

template <typename Ready>
void TeamBarrier::park_until(int tid, osal::WaitQueue& gate, Ready ready) {
  while (!ready()) {
    // Execute pending explicit tasks instead of idling (and re-check:
    // running a task yields, during which the release may arrive).
    if (while_waiting_ && while_waiting_(tid)) continue;
    if (ready()) return;
    gate.wait(spin_ns_);
  }
}

void TeamBarrier::wait(int tid) {
  if (parties_ == 1) {
    ++completed_;
    return;
  }
  os_->tools().emit([&](ompt::Tool& t) {
    t.on_sync_wait(ompt::Endpoint::kBegin, os_->engine().now(), tid);
  });
  // Happens-before: entering the barrier publishes everything this
  // thread did before it; leaving joins every other party's arrival
  // (the generation counters below additionally model the hardware
  // atomics the spin-poll paths read).
  sim::race::release(os_->engine(), this);
  if (algo_ == RuntimeTuning::BarrierAlgo::kCentralized) {
    wait_centralized(tid);
  } else {
    wait_tree(tid);
  }
  sim::race::acquire(os_->engine(), this);
  os_->tools().emit([&](ompt::Tool& t) {
    t.on_sync_wait(ompt::Endpoint::kEnd, os_->engine().now(), tid);
  });
}

void TeamBarrier::wait_centralized(int tid) {
  Slot& me = slots_[static_cast<std::size_t>(tid)];
  const std::uint64_t gen = ++me.local_gen;
  // Arrival: one contended RMW on the shared counter.
  os_->atomic_op(static_cast<int>(central_gate_.waiters()));
  sim::race::atomic_rmw(os_->engine(), &arrived_, "TeamBarrier::arrived_");
  ++arrived_;
  if (arrived_ == parties_) {
    arrived_ = 0;
    ++completed_;
    sim::race::atomic_store(os_->engine(), &central_release_gen_,
                            "TeamBarrier::central_release_gen_");
    central_release_gen_ = gen;
    central_gate_.notify_all();
    return;
  }
  park_until(tid, central_gate_, [&] {
    sim::race::atomic_load(os_->engine(), &central_release_gen_);
    return central_release_gen_ >= gen;
  });
}

void TeamBarrier::wait_tree(int tid) {
  Slot& me = slots_[static_cast<std::size_t>(tid)];
  const std::uint64_t gen = ++me.local_gen;

  // --- gather: wait for children, then signal the parent ---
  int signal_bit = 0;  // the s at which we signal (0 for the root)
  for (int s = 1; s < parties_; s <<= 1) {
    if ((tid & s) != 0) {
      signal_bit = s;
      break;
    }
    const int child = tid + s;
    if (child >= parties_) continue;
    Slot& ch = slots_[static_cast<std::size_t>(child)];
    park_until(tid, ch.gate, [&] {
      sim::race::atomic_load(os_->engine(), &ch.arrive_gen);
      return ch.arrive_gen >= gen;
    });
    charge_step();
  }
  if (signal_bit != 0) {
    sim::race::atomic_store(os_->engine(), &me.arrive_gen,
                            "TeamBarrier::Slot::arrive_gen");
    me.arrive_gen = gen;
    charge_step();
    me.gate.notify_one();  // wake the parent if it sleeps on our slot
    // --- wait for our release ---
    park_until(tid, me.gate, [&] {
      sim::race::atomic_load(os_->engine(), &me.release_gen);
      return me.release_gen >= gen;
    });
  } else {
    ++completed_;
  }

  // --- release our subtree, largest child first ---
  const int limit = signal_bit == 0 ? parties_ : signal_bit;
  int top = 1;
  while (top < limit && tid + top < parties_) top <<= 1;
  for (int s = top; s >= 1; s >>= 1) {
    if (s >= limit) continue;
    const int child = tid + s;
    if (child >= parties_) continue;
    Slot& ch = slots_[static_cast<std::size_t>(child)];
    sim::race::atomic_store(os_->engine(), &ch.release_gen,
                            "TeamBarrier::Slot::release_gen");
    ch.release_gen = gen;
    charge_step();
    ch.gate.notify_one();
  }
}

}  // namespace kop::komp

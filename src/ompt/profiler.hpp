#pragma once

// ConstructProfiler: the built-in OMPT tool behind examples/omp_profiler.
//
// Aggregates begin/end callback pairs into per-construct (count,
// total virtual time) buckets keyed by a stable label, e.g.
// "parallel", "barrier-explicit.wait", "for-dynamic", "critical.hold".
// Output order is alphabetical (std::map) so both the text table and
// the JSON export are deterministic.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ompt/ompt.hpp"

namespace kop::ompt {

class ConstructProfiler : public Tool {
 public:
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
  };

  void on_parallel(Endpoint e, sim::Time t, int team_size) override;
  void on_implicit_task(Endpoint e, sim::Time t, int tid,
                        int team_size) override;
  void on_work(WorkKind w, Endpoint e, sim::Time t, int tid,
               std::int64_t iterations) override;
  void on_dispatch(sim::Time t, int tid, std::int64_t lo,
                   std::int64_t hi) override;
  void on_sync_region(SyncRegion s, Endpoint e, sim::Time t,
                      int tid) override;
  void on_sync_wait(Endpoint e, sim::Time t, int tid) override;
  void on_mutex(MutexKind m, MutexEvent ev, sim::Time t,
                const void* lock) override;
  void on_task_create(sim::Time t, int tid) override;
  void on_task_schedule(Endpoint e, sim::Time t, int tid,
                        bool stolen) override;
  void on_rt_task_submit(TaskRuntimeKind k, sim::Time t, int lane) override;
  void on_rt_task_execute(TaskRuntimeKind k, Endpoint e, sim::Time t,
                          int lane, bool stolen) override;

  const std::map<std::string, Agg>& aggregates() const { return aggs_; }
  std::uint64_t dispatches() const { return dispatches_; }
  std::uint64_t steals() const { return steals_; }

  // Human-readable per-construct table.
  std::string format_table() const;
  // One format_table() row: label, count, total and mean microseconds.
  static std::string format_row(const std::string& label, const Agg& a);

  void clear();

 private:
  // Interval tracking: begin pushes, end pops and accumulates.
  void begin(const std::string& label, int tid, sim::Time t);
  void end(const std::string& label, int tid, sim::Time t);
  void count_event(const std::string& label);

  std::map<std::string, Agg> aggs_;
  // (label, tid) -> stack of begin times; nesting-safe.
  std::map<std::pair<std::string, int>, std::vector<sim::Time>> open_;
  // Mutexes are keyed by lock address, not tid, because a lock can be
  // released by a different event order than FIFO per thread.
  std::map<const void*, sim::Time> mutex_acquire_;
  std::map<const void*, sim::Time> mutex_acquired_;
  std::uint64_t dispatches_ = 0;
  std::uint64_t steals_ = 0;
};

}  // namespace kop::ompt

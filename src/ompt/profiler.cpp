#include "ompt/profiler.hpp"

#include <iomanip>
#include <sstream>

namespace kop::ompt {

void ConstructProfiler::begin(const std::string& label, int tid,
                              sim::Time t) {
  open_[{label, tid}].push_back(t);
}

void ConstructProfiler::end(const std::string& label, int tid, sim::Time t) {
  auto it = open_.find({label, tid});
  Agg& a = aggs_[label];
  ++a.count;
  if (it != open_.end() && !it->second.empty()) {
    a.total_ns += t - it->second.back();
    it->second.pop_back();
  }
}

void ConstructProfiler::count_event(const std::string& label) {
  ++aggs_[label].count;
}

void ConstructProfiler::on_parallel(Endpoint e, sim::Time t, int) {
  if (e == Endpoint::kBegin) begin("parallel", 0, t);
  else end("parallel", 0, t);
}

void ConstructProfiler::on_implicit_task(Endpoint e, sim::Time t, int tid,
                                         int) {
  if (e == Endpoint::kBegin) begin("implicit-task", tid, t);
  else end("implicit-task", tid, t);
}

void ConstructProfiler::on_work(WorkKind w, Endpoint e, sim::Time t, int tid,
                                std::int64_t) {
  const std::string label = work_kind_name(w);
  if (e == Endpoint::kBegin) begin(label, tid, t);
  else end(label, tid, t);
}

void ConstructProfiler::on_dispatch(sim::Time, int, std::int64_t,
                                    std::int64_t) {
  ++dispatches_;
}

void ConstructProfiler::on_sync_region(SyncRegion s, Endpoint e, sim::Time t,
                                       int tid) {
  const std::string label = sync_region_name(s);
  if (e == Endpoint::kBegin) begin(label, tid, t);
  else end(label, tid, t);
}

void ConstructProfiler::on_sync_wait(Endpoint e, sim::Time t, int tid) {
  if (e == Endpoint::kBegin) begin("sync-wait", tid, t);
  else end("sync-wait", tid, t);
}

void ConstructProfiler::on_mutex(MutexKind m, MutexEvent ev, sim::Time t,
                                 const void* lock) {
  const std::string kind = mutex_kind_name(m);
  switch (ev) {
    case MutexEvent::kAcquire:
      mutex_acquire_[lock] = t;
      break;
    case MutexEvent::kAcquired: {
      auto it = mutex_acquire_.find(lock);
      Agg& a = aggs_[kind + ".wait"];
      ++a.count;
      if (it != mutex_acquire_.end()) {
        a.total_ns += t - it->second;
        mutex_acquire_.erase(it);
      }
      mutex_acquired_[lock] = t;
      break;
    }
    case MutexEvent::kReleased: {
      auto it = mutex_acquired_.find(lock);
      Agg& a = aggs_[kind + ".hold"];
      ++a.count;
      if (it != mutex_acquired_.end()) {
        a.total_ns += t - it->second;
        mutex_acquired_.erase(it);
      }
      break;
    }
  }
}

void ConstructProfiler::on_task_create(sim::Time, int) {
  count_event("task-create");
}

void ConstructProfiler::on_task_schedule(Endpoint e, sim::Time t, int tid,
                                         bool stolen) {
  if (e == Endpoint::kBegin) {
    begin("task-exec", tid, t);
    if (stolen) ++steals_;
  } else {
    end("task-exec", tid, t);
  }
}

void ConstructProfiler::on_rt_task_submit(TaskRuntimeKind k, sim::Time,
                                          int) {
  count_event(k == TaskRuntimeKind::kKernel ? "rt-task-submit.kernel"
                                            : "rt-task-submit.user");
}

void ConstructProfiler::on_rt_task_execute(TaskRuntimeKind k, Endpoint e,
                                           sim::Time t, int lane,
                                           bool stolen) {
  const std::string label = k == TaskRuntimeKind::kKernel
                                ? "rt-task-exec.kernel"
                                : "rt-task-exec.user";
  if (e == Endpoint::kBegin) {
    begin(label, lane, t);
    if (stolen) ++steals_;
  } else {
    end(label, lane, t);
  }
}

std::string ConstructProfiler::format_row(const std::string& label,
                                          const Agg& a) {
  const double total_us = static_cast<double>(a.total_ns) / 1e3;
  const double mean_us =
      a.count ? total_us / static_cast<double>(a.count) : 0.0;
  std::ostringstream os;
  os << std::left << std::setw(24) << label << std::right << ' '
     << std::setw(10) << a.count << ' ' << std::fixed << std::setprecision(3)
     << std::setw(14) << total_us << ' ' << std::setprecision(4)
     << std::setw(12) << mean_us << '\n';
  return os.str();
}

std::string ConstructProfiler::format_table() const {
  std::ostringstream os;
  os << std::left << std::setw(24) << "construct" << std::right << ' '
     << std::setw(10) << "count" << ' ' << std::setw(14) << "total_us" << ' '
     << std::setw(12) << "mean_us" << '\n';
  os << std::string(63, '-') << '\n';
  for (const auto& [label, a] : aggs_) os << format_row(label, a);
  if (dispatches_ || steals_) {
    os << std::string(63, '-') << '\n';
    os << "chunk dispatches: " << dispatches_
       << "   task steals: " << steals_ << '\n';
  }
  return os.str();
}

void ConstructProfiler::clear() {
  aggs_.clear();
  open_.clear();
  mutex_acquire_.clear();
  mutex_acquired_.clear();
  dispatches_ = 0;
  steals_ = 0;
}

}  // namespace kop::ompt

#include "epcc/epcc.hpp"

#include <functional>
#include <iomanip>
#include <sstream>

namespace kop::epcc {

Suite::Suite(komp::Runtime& rt, EpccConfig config) : rt_(&rt), cfg_(config) {}

double Suite::now_us() const { return sim::to_micros(rt_->os().engine().now()); }

Measurement Suite::make(const std::string& group, const std::string& name,
                        bool reference) const {
  Measurement m;
  m.group = group;
  m.name = name;
  m.reference = reference;
  return m;
}

void Suite::sample(Measurement& m, sim::Time per_construct_delay,
                   const std::function<void()>& total_fn) {
  // What the nominal delay actually costs on this machine/OS (faster
  // cores shrink it, no-red-zone codegen inflates it) -- the measured
  // reference EPCC subtracts.
  const double effective_delay_us =
      sim::to_micros(per_construct_delay) *
      rt_->os().costs().compute_inflation / rt_->os().machine().perf_factor;
  for (int rep = 0; rep < cfg_.outer_reps; ++rep) {
    const double t0 = now_us();
    total_fn();
    const double t1 = now_us();
    const double per_construct = (t1 - t0) / cfg_.inner_iters;
    m.overhead_us.add(per_construct - effective_delay_us);
  }
}

// ---------------------------------------------------------------- sync

std::vector<Measurement> Suite::run_syncbench() {
  // Warmup (stack boot, pool spin-up) ends here; everything below is
  // the measurement phase, where per-point cost scales apply.
  rt_->os().engine().snapshot_point();
  std::vector<Measurement> out;
  komp::Runtime& rt = *rt_;
  const sim::Time delay = cfg_.delay_ns;
  const sim::Time mdelay = cfg_.mutex_delay_ns;
  const int inner = cfg_.inner_iters;

  // reference: the delay alone, on the master thread.
  {
    auto m = make("SYNCH", "reference", true);
    sample(m, delay, [&] {
      for (int i = 0; i < inner; ++i) rt.os().compute_ns(delay);
    });
    out.push_back(std::move(m));
  }
  {
    auto m = make("SYNCH", "PARALLEL");
    sample(m, delay, [&] {
      for (int i = 0; i < inner; ++i)
        rt.parallel([&](komp::TeamThread& tt) { tt.compute_ns(delay); });
    });
    out.push_back(std::move(m));
  }
  {
    auto m = make("SYNCH", "FOR");
    sample(m, delay, [&] {
      rt.parallel([&](komp::TeamThread& tt) {
        const int n = tt.nthreads();
        for (int i = 0; i < inner; ++i) {
          tt.for_loop(komp::Schedule::kStatic, 0, 0, n,
                      [&](std::int64_t b, std::int64_t e) {
                        tt.compute_ns(delay * (e - b));
                      });
        }
      });
    });
    out.push_back(std::move(m));
  }
  {
    auto m = make("SYNCH", "PARALLEL_FOR");
    sample(m, delay, [&] {
      for (int i = 0; i < inner; ++i) {
        rt.parallel([&](komp::TeamThread& tt) {
          tt.for_loop(komp::Schedule::kStatic, 0, 0, tt.nthreads(),
                      [&](std::int64_t, std::int64_t) { tt.compute_ns(delay); });
        });
      }
    });
    out.push_back(std::move(m));
  }
  {
    auto m = make("SYNCH", "BARRIER");
    sample(m, delay, [&] {
      rt.parallel([&](komp::TeamThread& tt) {
        for (int i = 0; i < inner; ++i) {
          tt.compute_ns(delay);
          tt.barrier();
        }
      });
    });
    out.push_back(std::move(m));
  }
  {
    auto m = make("SYNCH", "SINGLE");
    sample(m, delay, [&] {
      rt.parallel([&](komp::TeamThread& tt) {
        for (int i = 0; i < inner; ++i)
          tt.single([&] { tt.compute_ns(delay); });
      });
    });
    out.push_back(std::move(m));
  }
  {
    auto m = make("SYNCH", "CRITICAL");
    sample(m, mdelay, [&] {
      rt.parallel([&](komp::TeamThread& tt) {
        for (int i = 0; i < inner; ++i)
          tt.critical("epcc", [&] { tt.compute_ns(mdelay); });
      });
    });
    out.push_back(std::move(m));
  }
  {
    auto m = make("SYNCH", "LOCK/UNLOCK");
    auto lock = rt.make_lock();
    sample(m, mdelay, [&] {
      rt.parallel([&](komp::TeamThread& tt) {
        for (int i = 0; i < inner; ++i) {
          lock->set();
          tt.compute_ns(mdelay);
          lock->unset();
        }
      });
    });
    out.push_back(std::move(m));
  }
  {
    auto m = make("SYNCH", "ORDERED");
    sample(m, mdelay, [&] {
      rt.parallel([&](komp::TeamThread& tt) {
        // inner ordered iterations spread over the team.
        tt.for_ordered(0, inner, [&](std::int64_t) { tt.compute_ns(mdelay); });
      });
    });
    out.push_back(std::move(m));
  }
  {
    auto m = make("SYNCH", "ATOMIC");
    sample(m, 0, [&] {
      rt.parallel([&](komp::TeamThread& tt) {
        for (int i = 0; i < inner; ++i) tt.atomic_update();
      });
    });
    out.push_back(std::move(m));
  }
  {
    auto m = make("SYNCH", "REDUCTION");
    sample(m, delay, [&] {
      for (int i = 0; i < inner; ++i) {
        rt.parallel([&](komp::TeamThread& tt) {
          tt.compute_ns(delay);
          tt.reduce(1.0, komp::ReduceOp::kSum);
        });
      }
    });
    out.push_back(std::move(m));
  }
  return out;
}

// ------------------------------------------------------------ schedule

std::vector<Measurement> Suite::run_schedbench() {
  rt_->os().engine().snapshot_point();
  std::vector<Measurement> out;
  komp::Runtime& rt = *rt_;
  // Per-iteration delay, EPCC schedbench style.
  const sim::Time iter_delay = 1 * sim::kMicrosecond;
  const int inner = cfg_.inner_iters;

  {
    auto m = make("SCHEDULE", "reference", true);
    sample(m, iter_delay * cfg_.sched_iters_per_thread, [&] {
      for (int i = 0; i < inner; ++i) {
        for (int k = 0; k < cfg_.sched_iters_per_thread; ++k)
          rt.os().compute_ns(iter_delay);
      }
    });
    out.push_back(std::move(m));
  }

  auto run_sched = [&](const std::string& name, komp::Schedule sched,
                       int chunk) {
    auto m = make("SCHEDULE", name);
    sample(m, iter_delay * cfg_.sched_iters_per_thread, [&] {
      rt.parallel([&](komp::TeamThread& tt) {
        const std::int64_t total =
            static_cast<std::int64_t>(tt.nthreads()) *
            cfg_.sched_iters_per_thread;
        for (int i = 0; i < inner; ++i) {
          tt.for_loop(sched, chunk, 0, total,
                      [&](std::int64_t b, std::int64_t e) {
                        tt.compute_ns(iter_delay * (e - b));
                      });
        }
      });
    });
    out.push_back(std::move(m));
  };

  run_sched("STATIC", komp::Schedule::kStatic, 0);
  for (int chunk : {1, 2, 4, 8, 16, 32, 64, 128})
    run_sched("STATIC_" + std::to_string(chunk),
              komp::Schedule::kStaticChunked, chunk);
  for (int chunk : {1, 2, 4, 8, 16, 32, 64, 128})
    run_sched("DYNAMIC_" + std::to_string(chunk), komp::Schedule::kDynamic,
              chunk);
  for (int chunk : {1, 2})
    run_sched("GUIDED_" + std::to_string(chunk), komp::Schedule::kGuided,
              chunk);
  return out;
}

// --------------------------------------------------------------- array

std::vector<Measurement> Suite::run_arraybench() {
  rt_->os().engine().snapshot_point();
  std::vector<Measurement> out;
  komp::Runtime& rt = *rt_;
  const sim::Time delay = cfg_.delay_ns;
  const int inner = cfg_.inner_iters;

  {
    auto m = make("ARRAY", "reference", true);
    sample(m, delay, [&] {
      for (int i = 0; i < inner; ++i) rt.os().compute_ns(delay);
    });
    out.push_back(std::move(m));
  }
  for (const std::uint64_t size_doubles : cfg_.array_sizes) {
    const std::uint64_t bytes = size_doubles * 8;
    const std::string size_tag = std::to_string(size_doubles);
  {
    // private: per-thread stack allocation, no copy.
    auto m = make("ARRAY", "PRIVATE_" + size_tag);
    sample(m, delay, [&] {
      for (int i = 0; i < inner; ++i)
        rt.parallel([&](komp::TeamThread& tt) { tt.compute_ns(delay); });
    });
    out.push_back(std::move(m));
  }
  {
    // firstprivate: every thread copies the master's array in.
    auto m = make("ARRAY", "FIRSTPRIVATE_" + size_tag);
    sample(m, delay, [&] {
      for (int i = 0; i < inner; ++i) {
        rt.parallel([&](komp::TeamThread& tt) {
          tt.charge_memcpy(bytes);
          tt.compute_ns(delay);
        });
      }
    });
    out.push_back(std::move(m));
  }
  {
    // copyprivate: one thread fills it, the rest copy out.
    auto m = make("ARRAY", "COPYPRIVATE_" + size_tag);
    sample(m, delay, [&] {
      for (int i = 0; i < inner; ++i) {
        rt.parallel([&](komp::TeamThread& tt) {
          tt.copyprivate(bytes, [&] { tt.compute_ns(delay); });
        });
      }
    });
    out.push_back(std::move(m));
  }
  {
    // copyin: threadprivate data propagated from master at region entry.
    auto m = make("ARRAY", "COPYIN_" + size_tag);
    sample(m, delay, [&] {
      for (int i = 0; i < inner; ++i) {
        rt.parallel([&](komp::TeamThread& tt) {
          if (tt.id() != 0) tt.charge_memcpy(bytes);
          tt.barrier();
          tt.compute_ns(delay);
        });
      }
    });
    out.push_back(std::move(m));
  }
  }  // size sweep
  return out;
}

// ---------------------------------------------------------------- task

std::vector<Measurement> Suite::run_taskbench() {
  rt_->os().engine().snapshot_point();
  std::vector<Measurement> out;
  komp::Runtime& rt = *rt_;
  const sim::Time delay = 2 * sim::kMicrosecond;  // per-task work
  const int per_thread = cfg_.tasks_per_thread;
  const int inner = cfg_.inner_iters;

  // Total delay per construct instance: every thread runs per_thread
  // tasks' worth of work.
  const sim::Time construct_delay = delay * per_thread;

  {
    auto m = make("TASK", "reference_1", true);
    sample(m, construct_delay, [&] {
      for (int i = 0; i < inner; ++i) {
        for (int k = 0; k < per_thread; ++k) rt.os().compute_ns(delay);
      }
    });
    out.push_back(std::move(m));
  }

  auto run_task_bench = [&](const std::string& name, auto region_body) {
    auto m = make("TASK", name);
    sample(m, construct_delay, [&] {
      for (int i = 0; i < inner; ++i) rt.parallel(region_body);
    });
    out.push_back(std::move(m));
  };

  run_task_bench("PARALLEL_TASK", [&](komp::TeamThread& tt) {
    for (int k = 0; k < per_thread; ++k)
      tt.task([&](komp::TeamThread& ex) { ex.compute_ns(delay); });
  });

  run_task_bench("MASTER_TASK", [&](komp::TeamThread& tt) {
    tt.master([&] {
      for (int k = 0; k < per_thread * tt.nthreads(); ++k)
        tt.task([&](komp::TeamThread& ex) { ex.compute_ns(delay); });
    });
  });

  run_task_bench("MASTER_TASK_BUSY_SLAVES", [&](komp::TeamThread& tt) {
    if (tt.id() == 0) {
      for (int k = 0; k < per_thread * tt.nthreads(); ++k)
        tt.task([&](komp::TeamThread& ex) { ex.compute_ns(delay); });
    } else {
      for (int k = 0; k < per_thread; ++k) tt.compute_ns(delay);
    }
  });

  run_task_bench("CONDITIONAL_TASK", [&](komp::TeamThread& tt) {
    for (int k = 0; k < per_thread; ++k)
      tt.task_if(false, [&](komp::TeamThread& ex) { ex.compute_ns(delay); });
  });

  run_task_bench("TASK_WAIT", [&](komp::TeamThread& tt) {
    for (int k = 0; k < per_thread; ++k) {
      tt.task([&](komp::TeamThread& ex) { ex.compute_ns(delay); });
    }
    tt.taskwait();
  });

  run_task_bench("TASK_BARRIER", [&](komp::TeamThread& tt) {
    for (int k = 0; k < per_thread; ++k)
      tt.task([&](komp::TeamThread& ex) { ex.compute_ns(delay); });
    tt.barrier();
  });

  run_task_bench("NESTED_TASK", [&](komp::TeamThread& tt) {
    for (int k = 0; k < per_thread / 4; ++k) {
      tt.task([&, delay](komp::TeamThread& ex) {
        for (int j = 0; j < 4; ++j)
          ex.task([&, delay](komp::TeamThread& ex2) { ex2.compute_ns(delay); });
        ex.taskwait();
      });
    }
  });

  run_task_bench("NESTED_MASTER_TASK", [&](komp::TeamThread& tt) {
    tt.master([&] {
      for (int k = 0; k < (per_thread * tt.nthreads()) / 4; ++k) {
        tt.task([&, delay](komp::TeamThread& ex) {
          for (int j = 0; j < 4; ++j)
            ex.task(
                [&, delay](komp::TeamThread& ex2) { ex2.compute_ns(delay); });
          ex.taskwait();
        });
      }
    });
  });

  // Task trees: reference then branch/leaf variants.
  const int depth = cfg_.tree_depth;
  const int tree_nodes = (1 << (depth + 1)) - 1;
  const sim::Time tree_delay_total = delay * tree_nodes;
  {
    auto m = make("TASK", "reference_2", true);
    sample(m, tree_delay_total, [&] {
      for (int i = 0; i < inner; ++i) {
        for (int k = 0; k < tree_nodes; ++k) rt.os().compute_ns(delay);
      }
    });
    out.push_back(std::move(m));
  }

  // BENCH_TASK_TREE: every node does work; LEAF_TASK_TREE: only leaves.
  std::function<void(komp::TeamThread&, int, bool)> spawn_tree =
      [&](komp::TeamThread& tt, int d, bool work_at_nodes) {
        if (work_at_nodes || d == 0) tt.compute_ns(delay);
        if (d == 0) return;
        for (int c = 0; c < 2; ++c) {
          tt.task([&spawn_tree, d, work_at_nodes](komp::TeamThread& ex) {
            spawn_tree(ex, d - 1, work_at_nodes);
          });
        }
        tt.taskwait();
      };

  run_task_bench("BENCH_TASK_TREE", [&](komp::TeamThread& tt) {
    tt.master([&] { spawn_tree(tt, depth, true); });
    tt.barrier();
  });
  run_task_bench("LEAF_TASK_TREE", [&](komp::TeamThread& tt) {
    tt.master([&] { spawn_tree(tt, depth, false); });
    tt.barrier();
  });

  return out;
}

std::vector<Measurement> Suite::run_all() {
  std::vector<Measurement> out;
  for (auto&& part :
       {run_arraybench(), run_schedbench(), run_syncbench(), run_taskbench()}) {
    for (auto& m : part) out.push_back(m);
  }
  return out;
}

std::string format_table(const std::string& title,
                         const std::vector<Measurement>& ms) {
  std::ostringstream oss;
  oss << title << "\n";
  oss << "  construct                        mean_us     sd_us\n";
  oss << std::fixed << std::setprecision(3);
  for (const auto& m : ms) {
    oss << "  " << std::left << std::setw(28) << m.name << std::right << ' '
        << std::setw(10) << m.overhead_us.mean() << ' ' << std::setw(9)
        << m.overhead_us.stddev() << (m.reference ? "  (reference)" : "")
        << '\n';
  }
  return oss.str();
}

}  // namespace kop::epcc

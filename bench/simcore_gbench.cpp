// Self-contained wall-clock microbenchmarks of the simulator core:
// raw event dispatch through the engine queue, same-instant yields,
// fiber switches, timed sleep/wake chains (run-ahead and queued),
// kernel task dispatch + steals, a full small OpenMP region, OpenMP
// tasks stolen by many idle thieves, and Linux runs many timeslices
// long.  These guard the *host* performance of the reproduction (every
// figure is built from millions of these operations).
//
//   simcore_gbench [--quick] [--filter SUBSTR] [--json FILE]
//
// Each bench reports items/sec (events, switches, tasks, ...) plus the
// engine queue's steady-state allocation count: allocations observed
// *after* the first warm-up repetition, which a warm arena-backed queue
// must keep at zero.  --json writes a "kop-bench" v1 document
// (validated by metrics_lint; examples/kop_perfgate gates CI against
// bench/simcore_floor.json).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "komp/runtime.hpp"
#include "linuxmodel/linux_os.hpp"
#include "nautilus/kernel.hpp"
#include "pthread_compat/pthreads.hpp"
#include "sim/engine.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace {

using kop::sim::Engine;

struct BenchResult {
  std::string name;
  std::string unit;           // what "items" counts: events, switches, ...
  std::uint64_t items = 0;    // total across timed reps
  double seconds = 0.0;       // wall-clock over timed reps
  std::uint64_t allocs_steady = 0;  // queue allocs after warm-up

  double items_per_sec() const {
    return seconds > 0 ? static_cast<double>(items) / seconds : 0.0;
  }
};

// Runs `rep` (which returns items processed) eight times for warm-up
// and then `reps` timed times.  `allocs` samples the cumulative
// allocation count of whatever the bench exercises; the steady-state
// figure is the delta across the timed reps only.  A bench's working
// set is the same every rep, so the first warm-up grows the event
// heap, payload slab and free list to their peak; the rest of the
// eight settle the fiber stack pool and host caches.
BenchResult run_bench(const std::string& name, const std::string& unit,
                      int reps, const std::function<std::uint64_t()>& rep,
                      const std::function<std::uint64_t()>& allocs) {
  BenchResult r;
  r.name = name;
  r.unit = unit;
  for (int i = 0; i < 8; ++i) rep();  // warm-up: populate arenas and stacks
  const std::uint64_t allocs_before = allocs();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) r.items += rep();
  const auto t1 = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.allocs_steady = allocs() - allocs_before;
  return r;
}

// Deterministic spread generator (benches must not depend on host RNG).
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() { return s = s * 6364136223846793005ull + 1442695040888963407ull; }
};

// --- Bench bodies ------------------------------------------------------

// Mixed near-future posts: many distinct instants plus heavy same-time
// collisions, the shape a barrier-heavy OpenMP run produces.  Reuses
// one engine across reps so the queue is measured warm.
BenchResult bench_event_loop(int reps, int n) {
  Engine eng;
  auto rep = [&]() -> std::uint64_t {
    Lcg lcg{12345};
    const kop::sim::Time base = eng.now();
    for (int i = 0; i < n; ++i)
      eng.post_at(base + static_cast<kop::sim::Time>((lcg.next() >> 32) % 64) * 97,
                  [] {});
    eng.run();
    return static_cast<std::uint64_t>(n);
  };
  return run_bench("event_loop", "events", reps, rep,
                   [&] { return eng.stats().queue_allocs; });
}

// Same-instant yields: threads ping-ponging via yield_now() at one
// virtual instant, each yield one push and one pop of a four-entry
// heap -- the per-event floor of the engine loop.
BenchResult bench_same_instant_yield(int reps, int yields) {
  Engine eng;
  auto rep = [&]() -> std::uint64_t {
    std::vector<kop::sim::SimThread*> ts;
    for (int t = 0; t < 4; ++t)
      ts.push_back(eng.spawn("y" + std::to_string(t), [&eng, yields] {
        for (int i = 0; i < yields; ++i) eng.yield_now();
      }));
    for (auto* t : ts) eng.wake(t);
    eng.run();
    return static_cast<std::uint64_t>(4) * yields;
  };
  return run_bench("same_instant_yield", "yields", reps, rep,
                   [&] { return eng.stats().queue_allocs; });
}

BenchResult bench_fiber_switch(int reps, int n) {
  kop::sim::Fiber f([] {
    for (;;) kop::sim::Fiber::yield();
  });
  auto rep = [&]() -> std::uint64_t {
    for (int i = 0; i < n; ++i) f.resume();
    return static_cast<std::uint64_t>(n) * 2;  // in + out
  };
  return run_bench("fiber_switch", "switches", reps, rep, [] { return 0ull; });
}

// A lone sleeper: nothing else is ever queued, so every sleep_for()
// runs ahead -- its wake is dispatched in place, with no push, pop or
// fiber switch.
BenchResult bench_sleep_wake(int reps, int n) {
  Engine eng;
  auto rep = [&]() -> std::uint64_t {
    auto* t = eng.spawn("sleeper", [&eng, n] {
      for (int i = 0; i < n; ++i) eng.sleep_for(10);
    });
    eng.wake(t);
    eng.run();
    return static_cast<std::uint64_t>(n);
  };
  return run_bench("sleep_wake", "wakes", reps, rep,
                   [&] { return eng.stats().queue_allocs; });
}

// Two sleepers in lock step: each wake ties or trails the other's, so
// every sleep takes the queue (push, pop and two fiber switches).
BenchResult bench_sleep_wake_lockstep(int reps, int n) {
  Engine eng;
  auto rep = [&]() -> std::uint64_t {
    for (int s = 0; s < 2; ++s) {
      eng.wake(eng.spawn("sleeper" + std::to_string(s), [&eng, n] {
        for (int i = 0; i < n; ++i) eng.sleep_for(10);
      }));
    }
    eng.run();
    return static_cast<std::uint64_t>(2) * n;
  };
  return run_bench("sleep_wake_lockstep", "wakes", reps, rep,
                   [&] { return eng.stats().queue_allocs; });
}

// Posts spread over a wide horizon (up to 100 ms): a deep heap of
// far-apart instants rather than a shallow one of near collisions.
BenchResult bench_far_horizon(int reps, int n) {
  Engine eng;
  auto rep = [&]() -> std::uint64_t {
    Lcg lcg{99};
    const kop::sim::Time base = eng.now();
    for (int i = 0; i < n; ++i)
      eng.post_at(base + static_cast<kop::sim::Time>((lcg.next() >> 32) % 5000) *
                             20'000,
                  [] {});
    eng.run();
    return static_cast<std::uint64_t>(n);
  };
  return run_bench("far_horizon", "events", reps, rep,
                   [&] { return eng.stats().queue_allocs; });
}

// Nautilus kernel task system: enqueue everything on CPU 0 with 8
// workers so 7 of them must steal.  Emits two records sharing one
// timed run: tasks dispatched and steals performed.
void bench_nk_tasks(int reps, int n, std::vector<BenchResult>* out) {
  std::uint64_t steals = 0;
  auto rep = [&]() -> std::uint64_t {
    Engine eng;
    kop::nautilus::NautilusKernel nk(eng, kop::hw::phi());
    nk.spawn_thread(
        "main",
        [&] {
          nk.task_system().start(8);
          int executed = 0;
          for (int i = 0; i < n; ++i)
            nk.task_system().enqueue([&executed] { ++executed; }, 0);
          while (nk.task_system().pending() > 0 || executed < n)
            eng.sleep_for(50'000);
          nk.task_system().stop();
          steals += nk.task_system().steals();
        },
        0);
    eng.run();
    return static_cast<std::uint64_t>(n);
  };
  BenchResult tasks =
      run_bench("nk_task_dispatch", "tasks", reps, rep, [] { return 0ull; });
  BenchResult st;
  st.name = "nk_task_steals";
  st.unit = "steals";
  // Steals accumulated across warm-up + timed reps; scale to timed share.
  st.items = steals * reps / (reps + 8);
  st.seconds = tasks.seconds;
  st.allocs_steady = 0;
  out->push_back(tasks);
  out->push_back(st);
}

// A full small OpenMP region through komp + pthread_compat + nautilus.
BenchResult bench_omp_parallel(int reps, int regions, int threads) {
  auto rep = [&]() -> std::uint64_t {
    Engine eng;
    kop::nautilus::NautilusKernel nk(eng, kop::hw::phi());
    nk.set_env("OMP_NUM_THREADS", std::to_string(threads));
    kop::pthread_compat::Pthreads pt(
        nk, kop::pthread_compat::nautilus_native_tuning());
    nk.spawn_thread(
        "main",
        [&] {
          kop::komp::Runtime rt(pt);
          for (int r = 0; r < regions; ++r)
            rt.parallel([](kop::komp::TeamThread& tt) { tt.compute_ns(1000); });
        },
        0);
    eng.run();
    return static_cast<std::uint64_t>(regions);
  };
  return run_bench("omp_parallel_t" + std::to_string(threads), "regions", reps,
                   rep, [] { return 0ull; });
}

// OpenMP tasks with many idle thieves: a 64-thread komp region on
// 8XEON.  Every thread spawns one task before the region-end barrier,
// so each enters the barrier's task drain rather than parking, and
// thread 0 spawns the rest: the other threads walk the steal ring over
// mostly empty deques while one deque holds the work.
BenchResult bench_omp_task_steals(int reps, int tasks, int threads) {
  auto rep = [&]() -> std::uint64_t {
    Engine eng;
    kop::nautilus::NautilusKernel nk(eng, kop::hw::xeon8());
    nk.set_env("OMP_NUM_THREADS", std::to_string(threads));
    kop::pthread_compat::Pthreads pt(
        nk, kop::pthread_compat::nautilus_native_tuning());
    nk.spawn_thread(
        "main",
        [&] {
          kop::komp::Runtime rt(pt);
          rt.parallel([&](kop::komp::TeamThread& tt) {
            const int mine = tt.id() == 0 ? tasks - (threads - 1) : 1;
            for (int k = 0; k < mine; ++k)
              tt.task([](kop::komp::TeamThread& ex) { ex.compute_ns(1000); });
          });
        },
        0);
    eng.run();
    return static_cast<std::uint64_t>(tasks);
  };
  return run_bench("omp_task_steals", "tasks", reps, rep, [] { return 0ull; });
}

// Linux runs many timeslices long on otherwise idle CPUs: threads on a
// PHI Linux stack, one per CPU, each computing blocks of a hundred
// timeslices.  No thread ever waits for a CPU, so no slice boundary can
// preempt, and a block should cost one event rather than one per slice.
BenchResult bench_linux_long_run(int reps, int blocks, int threads) {
  auto rep = [&]() -> std::uint64_t {
    Engine eng;
    kop::linuxmodel::LinuxOs os(eng, kop::hw::phi());
    const kop::sim::Time block_ns = 100 * os.costs().timeslice_ns;
    for (int t = 0; t < threads; ++t) {
      os.spawn_thread(
          "t" + std::to_string(t),
          [&os, blocks, block_ns] {
            for (int b = 0; b < blocks; ++b) os.compute_ns(block_ns);
          },
          t);
    }
    eng.run();
    return static_cast<std::uint64_t>(threads) * blocks;
  };
  return run_bench("linux_long_run", "blocks", reps, rep, [] { return 0ull; });
}

// --- Output ------------------------------------------------------------

void print_table(const std::vector<BenchResult>& results) {
  std::printf("%-22s %12s %10s %14s %8s  %s\n", "bench", "items", "sec",
              "items/sec", "allocs", "unit");
  for (const auto& r : results) {
    std::printf("%-22s %12llu %10.4f %14.0f %8llu  %s\n", r.name.c_str(),
                static_cast<unsigned long long>(r.items), r.seconds,
                r.items_per_sec(),
                static_cast<unsigned long long>(r.allocs_steady),
                r.unit.c_str());
  }
}

std::string to_json(const std::vector<BenchResult>& results) {
  kop::telemetry::JsonWriter w;
  w.begin_object();
  w.key("schema").value(kop::telemetry::kBenchSchemaName);
  w.key("version").value(kop::telemetry::kBenchSchemaVersion);
  w.key("generator").value("simcore_gbench");
  w.key("benches").begin_array();
  for (const auto& r : results) {
    w.begin_object();
    w.key("name").value(r.name);
    w.key("unit").value(r.unit);
    w.key("items").value(static_cast<std::uint64_t>(r.items));
    w.key("seconds").value(r.seconds);
    w.key("items_per_sec").value(r.items_per_sec());
    w.key("allocs_steady").value(static_cast<std::uint64_t>(r.allocs_steady));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  std::string filter;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a == "--filter" && i + 1 < argc) {
      filter = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--filter SUBSTR] [--json FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  const int reps = quick ? 3 : 10;
  const auto want = [&](const char* name) {
    return filter.empty() || std::string(name).find(filter) != std::string::npos;
  };

  std::vector<BenchResult> results;
  if (want("event_loop"))
    results.push_back(bench_event_loop(reps, quick ? 20'000 : 100'000));
  if (want("same_instant_yield"))
    results.push_back(bench_same_instant_yield(reps, quick ? 5'000 : 25'000));
  if (want("fiber_switch"))
    results.push_back(bench_fiber_switch(reps, quick ? 20'000 : 100'000));
  if (want("sleep_wake"))
    results.push_back(bench_sleep_wake(reps, quick ? 400'000 : 2'000'000));
  if (want("sleep_wake_lockstep"))
    results.push_back(bench_sleep_wake_lockstep(reps, quick ? 20'000 : 100'000));
  if (want("far_horizon"))
    results.push_back(bench_far_horizon(reps, quick ? 10'000 : 50'000));
  if (want("nk_task")) bench_nk_tasks(quick ? 2 : 5, quick ? 500 : 2'000, &results);
  if (want("omp_parallel"))
    results.push_back(bench_omp_parallel(quick ? 2 : 5, quick ? 5 : 20, 16));
  if (want("omp_task_steals"))
    results.push_back(
        bench_omp_task_steals(quick ? 2 : 5, quick ? 2'000 : 10'000, 64));
  if (want("linux_long_run"))
    results.push_back(
        bench_linux_long_run(reps, quick ? 2'000 : 10'000, 8));

  if (results.empty()) {
    std::fprintf(stderr, "no benches match filter \"%s\"\n", filter.c_str());
    return 2;
  }

  print_table(results);

  if (!json_path.empty()) {
    const std::string doc = to_json(results);
    const auto violations = kop::telemetry::validate_bench_json(doc);
    if (!violations.empty()) {
      for (const auto& v : violations)
        std::fprintf(stderr, "internal schema violation: %s\n", v.c_str());
      return 1;
    }
    std::ofstream out(json_path);
    out << doc << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

// The two benchmark workloads.  Each is a closed-loop batch sweep: a
// fixed set of callers submits a matrix of points one at a time and
// waits for each result.  The untraced path drives the public JobRunner
// (on nas_phi with a lease session to an in-process coordinator); the
// traced path calls run_point/run_epcc, the ResultCache and the coord
// Client itself, with a span around every call into a layer.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "cck/codegen.hpp"
#include "coord/client.hpp"
#include "coord/coordinator.hpp"
#include "coord/server.hpp"
#include "harness/figures.hpp"
#include "harness/jobs/baseline.hpp"
#include "harness/jobs/cache.hpp"
#include "harness/jobs/runner.hpp"
#include "hw/memory.hpp"
#include "nas/exec.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace harness = kop::harness;
namespace jobs = kop::harness::jobs;
using harness::EpccPart;
using jobs::PointResult;
using jobs::PointSpec;
using kop::core::PathKind;
using kop::telemetry::Counter;

/// Callers driving points: the 4 cores of the reference box.
constexpr int kCallers = 4;
/// Set-ups per run before the first sweep (setup_s is their median).
constexpr int kSetupReps = 5;
/// Seeded re-runs per sweep for the determinism gate.
constexpr int kRerunSample = 3;
/// Copies of the EPCC suite in one epcc_8xeon sweep, each with its own
/// point seed.  One copy is 12 points, and its sweep time is the slowest
/// of three TASK points running side by side; with four, 12 TASK points
/// queue on the 4 callers.  Over six alternating runs, point_ms_p50
/// ranged 9 % with four copies and 30 % with one.
constexpr int kEpccReplicas = 4;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic stream of draws from one seed.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() { return s = splitmix(s); }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

std::uint64_t point_seed(std::uint64_t seed) { return 1 + splitmix(seed) % 1000000; }

void fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string entry_name(const PointSpec& spec) {
  return "kop-" + jobs::hex16(jobs::ResultCache::key(spec)) + ".json";
}

const char* part_name(EpccPart p) {
  switch (p) {
    case EpccPart::kSync: return "sync";
    case EpccPart::kSched: return "sched";
    case EpccPart::kArray: return "array";
    case EpccPart::kTask: return "task";
    case EpccPart::kAll: return "all";
  }
  return "?";
}

bool is_automp(const PointSpec& p) {
  return p.path == PathKind::kAutoMpLinux || p.path == PathKind::kAutoMpNautilus;
}

/// The span (and per-layer host-time key) a point's simulation counts
/// under: EPCC parts belong to the runtime, NAS points to the layer the
/// path exercises.
std::string sim_span(const PointSpec& p) {
  if (p.kind == PointSpec::Kind::kEpcc)
    return std::string("komp.epcc_") + part_name(p.epcc_part);
  switch (p.path) {
    case PathKind::kLinuxOmp: return "linuxmodel.simulate";
    case PathKind::kRtk: return "rtk.simulate";
    case PathKind::kPik: return "pik.simulate";
    case PathKind::kAutoMpLinux: return "virgil.linux_simulate";
    case PathKind::kAutoMpNautilus: return "virgil.nk_simulate";
  }
  return "unknown.simulate";
}

/// Thread-safe sums and sample lists, keyed by metric-like names.
class Acc {
 public:
  void add(const std::string& k, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    sums_[k] += v;
  }
  void max(const std::string& k, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    sums_[k] = std::max(sums_[k], v);
  }
  void sample(const std::string& k, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_[k].push_back(v);
  }
  double sum(const std::string& k) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sums_.find(k);
    return it == sums_.end() ? 0.0 : it->second;
  }
  std::vector<double> samples(const std::string& k) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = samples_.find(k);
    return it == samples_.end() ? std::vector<double>{} : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> sums_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Deterministic per-layer counts of one result (cached or simulated).
void count_result(const PointSpec& spec, const PointResult& r, Acc& acc) {
  const auto& c = r.metrics.counters;
  const bool linux_os = spec.path == PathKind::kLinuxOmp ||
                        spec.path == PathKind::kAutoMpLinux;
  const bool libomp = !is_automp(spec);
  if (linux_os) {
    acc.add("linuxmodel.timer_ticks", c.total(Counter::kTimerTicks));
    acc.add("linuxmodel.noise_preemptions", c.total(Counter::kNoisePreemptions));
    acc.add("linuxmodel.page_faults", c.total(Counter::kPageFaults));
    acc.add("linuxmodel.tlb_misses", c.total(Counter::kTlbMisses));
    acc.add("linuxmodel.futex_waits", c.total(Counter::kFutexWaits));
  }
  if (spec.path == PathKind::kPik) acc.add("pik.syscalls", c.total(Counter::kSyscalls));
  if (libomp) {
    acc.add("komp.task_steals", c.total(Counter::kTaskSteals));
    acc.add("komp.task_steals_remote", c.total(Counter::kTaskStealsRemote));
  }
  acc.add("osal.blocking_wakes", c.total(Counter::kBlockingWakes));
  acc.add("osal.spin_wakes", c.total(Counter::kSpinWakes));
}

// ---- Driving points ----------------------------------------------------

/// `callers` threads take the next index of `order` until it runs out.
void closed_loop(const std::vector<std::size_t>& order, int callers,
                 const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  const int n = std::min<int>(callers, static_cast<int>(order.size()));
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&] {
      for (std::size_t k; (k = next++) < order.size();) fn(order[k]);
    });
  }
  for (auto& t : threads) t.join();
}

/// Longest-expected-first, as the JobRunner dispatches a matrix.
std::vector<std::size_t> lpt_order(const std::vector<PointSpec>& pts) {
  std::vector<std::size_t> order(pts.size());
  std::vector<double> cost(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    order[i] = i;
    cost[i] = jobs::cost_estimate(pts[i]);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return cost[a] > cost[b]; });
  return order;
}

struct Batch {
  std::vector<PointResult> results;
  std::vector<double> ms;  // dispatch -> result, per point
};

/// What a traced sweep records into.
struct TraceCtx {
  Tracer* tr = nullptr;
  Acc* acc = nullptr;
  jobs::ResultCache* cache = nullptr;
  kop::coord::Client* client = nullptr;  // nas_phi: lease + DONE
  std::string worker;
  std::atomic<std::uint64_t>* next_id = nullptr;
};

/// Time cck::Compiler::compile on the module an AutoMP point compiles.
void time_compile(const PointSpec& spec, TraceCtx& cx, std::uint64_t parent,
                  std::uint64_t id) {
  std::vector<std::unique_ptr<kop::hw::MemRegion>> owned;
  std::map<std::string, kop::hw::MemRegion*> regions;
  for (const auto& r : spec.nas.regions) {
    owned.push_back(std::make_unique<kop::hw::MemRegion>(r.name, r.bytes));
    regions[r.name] = owned.back().get();
  }
  const kop::cck::Module module = kop::nas::to_cck_module(spec.nas, regions);
  kop::cck::CompilerOptions copts;
  copts.width = spec.threads;
  copts.kernel_target = spec.path == PathKind::kAutoMpNautilus;
  const kop::cck::Compiler compiler(copts);
  const double t0 = now_s();
  {
    Scope s(*cx.tr, "cck.compile", parent, id);
    (void)compiler.compile(module);
  }
  cx.acc->sample("cck.compile_us", (now_s() - t0) * 1e6);
}

/// One simulation with boot/simulate spans, retried once like the
/// JobRunner does.
PointResult traced_simulate(const PointSpec& spec, TraceCtx& cx,
                            std::uint64_t parent, std::uint64_t id) {
  const std::string layer = sim_span(spec);
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::uint64_t run = 0, boot = 0, sim = 0;
    double t_start = 0, t_boot = 0, t_done = 0;
    kop::sim::Engine::Stats st{};
    harness::RunHooks hooks;
    hooks.on_boot = [&](kop::core::Stack&) {
      cx.tr->end(boot);
      t_boot = now_s();
      sim = cx.tr->begin(layer, run, id);
    };
    hooks.on_done = [&](kop::core::Stack& s) {
      cx.tr->end(sim);
      t_done = now_s();
      st = s.engine().stats();
    };
    try {
      PointResult r;
      {
        Scope rp(*cx.tr, "jobs.run_point", parent, id);
        run = rp.id();
        t_start = now_s();
        boot = cx.tr->begin("core.boot", run, id);
        if (spec.kind == PointSpec::Kind::kEpcc) {
          r.epcc = harness::run_epcc(spec.stack_config(), spec.epcc_part, spec.epcc,
                                     &r.metrics, hooks);
        } else {
          r = jobs::run_point(spec, hooks);
        }
      }
      Acc& a = *cx.acc;
      a.sample("core.boot_ms", (t_boot - t_start) * 1e3);
      a.add(layer + ".host_s", t_done - t_boot);
      a.add(layer + ".events", static_cast<double>(st.events_dispatched));
      a.add("sim.events", static_cast<double>(st.events_dispatched));
      a.add("sim.host_s", t_done - t_boot);
      a.add("sim.stale_wakes", static_cast<double>(st.stale_wakes));
      a.max("sim.peak_queue_depth", static_cast<double>(st.peak_queue_depth));
      a.add("sim.queue_allocs", static_cast<double>(st.queue_allocs));
      a.add("sim.threads_spawned", static_cast<double>(st.threads_spawned));
      a.add("jobs.simulated", 1);
      if (attempt > 0) a.add("jobs.retries", 1);
      return r;
    } catch (const std::exception& e) {
      cx.tr->end(boot);
      cx.tr->end(sim);
      if (attempt == 1) {
        cx.acc->add("jobs.retries", 1);
        PointResult failed;
        failed.failed = true;
        failed.error = spec.label() + ": " + e.what();
        return failed;
      }
    }
  }
  return {};
}

/// One point through the traced job flow: [LEASE] -> cache probe ->
/// simulate -> store -> [DONE].
PointResult traced_point(const PointSpec& spec, TraceCtx& cx) {
  const std::uint64_t id = ++*cx.next_id;
  Scope root(*cx.tr, "jobs.point", 0, id);
  Acc& a = *cx.acc;
  std::uint64_t lease_id = 0;
  if (cx.client != nullptr) {
    const double t0 = now_s();
    kop::coord::Client::Grant g;
    {
      Scope s(*cx.tr, "coord.lease", root.id(), id);
      g = cx.client->lease(cx.worker, spec.content_hash(), entry_name(spec));
    }
    a.sample("coord.lease_us", (now_s() - t0) * 1e6);
    if (!g.granted) {
      PointResult r;
      r.skipped = true;
      r.error = spec.label() + ": lease " + g.status;
      return r;
    }
    lease_id = g.lease_id;
  }
  PointResult r;
  bool hit = false;
  if (cx.cache != nullptr) {
    const double t0 = now_s();
    {
      Scope s(*cx.tr, "cache.load", root.id(), id);
      hit = cx.cache->load(spec, &r);
    }
    a.sample("cache.load_us", (now_s() - t0) * 1e6);
  }
  if (!hit) {
    if (is_automp(spec)) time_compile(spec, cx, root.id(), id);
    r = traced_simulate(spec, cx, root.id(), id);
    if (!r.failed && cx.cache != nullptr) {
      const double t0 = now_s();
      {
        Scope s(*cx.tr, "cache.store", root.id(), id);
        cx.cache->store(spec, r);
      }
      a.sample("cache.store_us", (now_s() - t0) * 1e6);
      a.sample("cache.entry_kb",
               static_cast<double>(fs::file_size(cx.cache->entry_path(spec))) / 1024.0);
    }
  }
  if (cx.client != nullptr && !r.failed) {
    const double t0 = now_s();
    bool ok = false;
    {
      Scope s(*cx.tr, "coord.done", root.id(), id);
      ok = cx.client->done(cx.worker, lease_id, spec.content_hash());
    }
    a.sample("coord.done_us", (now_s() - t0) * 1e6);
    if (!ok) {
      r.failed = true;
      r.error = spec.label() + ": DONE refused";
    }
  }
  return r;
}

/// Runs a batch of points: untraced through a shared JobRunner (each
/// caller submits one point and waits), traced through traced_point.
struct Exec {
  jobs::JobRunner* runner = nullptr;
  TraceCtx* tc = nullptr;

  Batch run(const std::vector<PointSpec>& pts) const {
    Batch b;
    b.results.resize(pts.size());
    b.ms.assign(pts.size(), 0.0);
    closed_loop(lpt_order(pts), kCallers, [&](std::size_t i) {
      const double t0 = now_s();
      PointResult r;
      try {
        r = tc != nullptr ? traced_point(pts[i], *tc) : runner->run({pts[i]})[0];
      } catch (const std::exception& e) {
        r.failed = true;
        r.error = pts[i].label() + ": " + e.what();
      }
      b.ms[i] = (now_s() - t0) * 1e3;
      b.results[i] = std::move(r);
    });
    return b;
  }
};

// ---- Correctness --------------------------------------------------------

std::uint64_t results_digest(const std::vector<PointSpec>& pts,
                             const std::vector<PointResult>& results) {
  std::string folded;
  for (std::size_t i = 0; i < pts.size() && i < results.size(); ++i)
    folded += jobs::hex16(jobs::fnv1a64(jobs::ResultCache::encode(pts[i], results[i])));
  return jobs::fnv1a64(folded);
}

/// Every point present and successful, and the metrics artifact valid.
/// Returns the number of failed points.
std::uint64_t check_results(const std::vector<PointSpec>& pts,
                            const std::vector<PointResult>& results, Report& rep) {
  std::uint64_t failed = 0;
  if (results.size() != pts.size()) {
    rep.violate("result count " + std::to_string(results.size()) + " != " +
                std::to_string(pts.size()) + " points");
    return pts.size();
  }
  harness::MetricsSink sink("kopbench");
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const PointResult& r = results[i];
    if (r.failed || r.skipped || r.metrics.label.empty()) {
      ++failed;
      rep.violate("point missing or failed: " +
                  (r.error.empty() ? pts[i].label() : r.error));
      continue;
    }
    sink.add(r.metrics);
  }
  for (const auto& v : kop::telemetry::validate_metrics_json(sink.to_json()))
    rep.violate("metrics artifact: " + v);
  return failed;
}

/// Re-run a seeded sample of the cheaper half of the points twice each:
/// the two dispatch digests must agree and the result must encode to
/// the same bytes as the sweep's.
void rerun_sample(const std::vector<PointSpec>& pts,
                  const std::vector<PointResult>& results, std::uint64_t seed,
                  int count, Report& rep) {
  std::vector<std::size_t> order = lpt_order(pts);
  std::vector<std::size_t> cheap(order.begin() + static_cast<std::ptrdiff_t>(order.size() / 2),
                                 order.end());
  if (cheap.empty()) return;
  Rng rng{seed ^ 0x5a5a5a5aULL};
  for (int k = 0; k < count; ++k) {
    const std::size_t i = cheap[rng.below(cheap.size())];
    const PointSpec& spec = pts[i];
    std::uint64_t digest[2] = {0, 0};
    std::string bytes[2];
    std::thread runs[2];
    for (int j = 0; j < 2; ++j) {
      runs[j] = std::thread([&, j] {
        harness::RunHooks hooks;
        hooks.on_done = [&](kop::core::Stack& s) {
          digest[j] = s.engine().stats().dispatch_digest;
        };
        try {
          bytes[j] = jobs::ResultCache::encode(spec, jobs::run_point(spec, hooks));
        } catch (const std::exception& e) {
          bytes[j] = std::string("error: ") + e.what();
        }
      });
    }
    for (auto& t : runs) t.join();
    if (digest[0] != digest[1])
      rep.violate("dispatch digest differs across re-runs of " + spec.label());
    if (bytes[0] != bytes[1] || bytes[0] != jobs::ResultCache::encode(spec, results[i]))
      rep.violate("re-run result bytes differ for " + spec.label());
  }
}

// ---- Workloads ----------------------------------------------------------

/// One sweep's measurements.
struct SweepOut {
  double wall_s = 0.0;
  /// Dispatch -> result per point, in the same point order every sweep.
  std::vector<double> point_ms;
  std::uint64_t points = 0;     // completed (simulated or served from cache)
  std::uint64_t attempted = 0;  // operations tried: points + RPCs
  std::uint64_t failed = 0;
  double busy_s = 0.0;          // sum of point host time
};

class Workload {
 public:
  explicit Workload(const Options& o) : opts_(o), pseed_(point_seed(o.seed)) {}
  virtual ~Workload() = default;
  /// Fresh state for one sweep (the timed set-up).
  virtual void setup() = 0;
  /// The timed section; tc is null when untraced.
  virtual SweepOut sweep(TraceCtx* tc) = 0;
  /// Correctness of the last sweep (outside the timed section).
  virtual void check(Report& rep) = 0;
  /// Workload-specific end-to-end lines.
  virtual void extra(Report&) {}

  std::uint64_t digest() const { return digest_; }

 protected:
  /// Shared tail of check(): presence, metrics artifact, determinism.
  void check_points(const std::vector<PointSpec>& pts,
                    const std::vector<PointResult>& results, Report& rep) {
    check_results(pts, results, rep);
    rerun_sample(pts, results, opts_.seed, opts_.minimal ? 1 : kRerunSample, rep);
  }
  void set_digest(const std::vector<PointSpec>& pts,
                  const std::vector<PointResult>& results) {
    digest_ = results_digest(pts, results);
  }

  Options opts_;
  std::uint64_t pseed_;
  std::uint64_t digest_ = 0;
};

std::uint64_t count_failed(const std::vector<PointResult>& rs) {
  std::uint64_t n = 0;
  for (const auto& r : rs) n += (r.failed || r.skipped) ? 1 : 0;
  return n;
}

/// The warm-up every set-up ends with: one small point per path,
/// simulated and discarded, so lazy allocation and code paging finish
/// before the timed section.
void warm_up(const std::vector<PointSpec>& pts) {
  for (const auto& p : pts) (void)jobs::run_point(p);
}

SweepOut from_batch(const Batch& b, double wall) {
  SweepOut out;
  out.wall_s = wall;
  out.point_ms = b.ms;
  out.attempted = b.results.size();
  out.failed = count_failed(b.results);
  out.points = out.attempted - out.failed;
  for (double ms : b.ms) out.busy_s += ms / 1e3;
  return out;
}

/// EPCC on 8XEON at 192 threads, every part for Linux, RTK and PIK,
/// kEpccReplicas times over consecutive point seeds.
class EpccWorkload : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    auto sweep = harness::fig13_sweep(/*quick=*/true);
    jobs::PointMatrix mx;
    for (int copy = 0; copy < (opts_.minimal ? 1 : kEpccReplicas); ++copy) {
      for (PathKind path : sweep.paths) {
        for (EpccPart part : {EpccPart::kSync, EpccPart::kSched, EpccPart::kArray,
                              EpccPart::kTask}) {
          PointSpec p;
          p.kind = PointSpec::Kind::kEpcc;
          p.machine = sweep.machine;
          p.path = path;
          p.threads = opts_.minimal ? 16 : 192;
          p.seed = pseed_ + static_cast<std::uint64_t>(copy);
          p.epcc_part = part;
          p.epcc = sweep.config;
          mx.add(p);
        }
      }
    }
    pts_ = mx.points();
    jobs::JobOptions jo;
    jo.jobs = kCallers;
    runner_ = std::make_unique<jobs::JobRunner>(jo);
    std::vector<PointSpec> warm;
    for (PathKind path : sweep.paths) {
      PointSpec p = pts_.front();
      p.path = path;
      p.threads = 16;
      p.epcc_part = EpccPart::kSync;
      warm.push_back(p);
    }
    warm_up(warm);
  }

  SweepOut sweep(TraceCtx* tc) override {
    const double t0 = now_s();
    Batch b = Exec{runner_.get(), tc}.run(pts_);
    SweepOut out = from_batch(b, now_s() - t0);
    results_ = std::move(b.results);
    set_digest(pts_, results_);
    if (tc != nullptr)
      for (std::size_t i = 0; i < pts_.size(); ++i) count_result(pts_[i], results_[i], *tc->acc);
    return out;
  }

  void check(Report& rep) override { check_points(pts_, results_, rep); }

  void extra(Report& rep) override {
    rep.note("EPCC overheads are unvalidated numerically: the repo holds no "
             "paper values for them");
  }

 private:
  std::vector<PointSpec> pts_;
  std::unique_ptr<jobs::JobRunner> runner_;
  std::vector<PointResult> results_;
};

/// Seed every point of a matrix and deduplicate into `mx`.
void add_seeded(jobs::PointMatrix& mx, std::vector<PointSpec> pts, std::uint64_t seed) {
  for (auto& p : pts) {
    p.seed = seed;
    mx.add(std::move(p));
  }
}

/// The fig09 reference gains of the paper, keyed "BT-B@1".
std::map<std::string, double> load_paper_gains(const std::string& data_dir) {
  std::map<std::string, double> out;
  std::ifstream in(data_dir + "/fig09_paper_gains.csv");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.rfind("bench,", 0) == 0) continue;
    std::stringstream ss(line);
    std::string bench, cpus, gain;
    std::getline(ss, bench, ',');
    std::getline(ss, cpus, ',');
    std::getline(ss, gain, ',');
    out[bench + "@" + cpus] = std::stod(gain);
  }
  return out;
}

/// An in-process coordinator serving a result cache on a unix socket.
struct CoordRig {
  static constexpr const char* kSocket = "coord.sock";

  CoordRig(const CoordRig&) = delete;
  CoordRig& operator=(const CoordRig&) = delete;

  std::map<std::uint64_t, PointSpec> specs;
  std::unique_ptr<jobs::ResultCache> cache;
  std::unique_ptr<kop::coord::Coordinator> coord;
  std::unique_ptr<kop::coord::Server> server;
  std::thread daemon;

  CoordRig(const std::vector<PointSpec>& pts, const std::string& cache_dir) {
    cache = std::make_unique<jobs::ResultCache>(cache_dir);
    for (const auto& p : pts) specs.emplace(p.content_hash(), p);
    kop::coord::CacheProbe probe = [this](std::uint64_t hash, std::string* doc) {
      const auto it = specs.find(hash);
      PointResult r;
      if (it == specs.end() || !cache->load(it->second, &r)) return false;
      *doc = jobs::ResultCache::encode(it->second, r);
      return true;
    };
    coord = std::make_unique<kop::coord::Coordinator>(kop::coord::CoordinatorOptions{},
                                                      std::move(probe));
    for (const auto& p : pts) {
      kop::coord::PointInfo info;
      info.hash = p.content_hash();
      info.entry = entry_name(p);
      info.label = p.label();
      coord->add_point(std::move(info));
    }
    kop::coord::ServerOptions so;
    so.address = kSocket;
    so.poll_ms = 20;
    server = std::make_unique<kop::coord::Server>(coord.get(), so);
    daemon = std::thread([this] { server->run(); });
  }

  /// Stop serving; the coordinator's counters stay readable.  SHUTDOWN
  /// goes through the protocol because Server::stop() sets a flag the
  /// serving thread reads unsynchronized.
  void stop() {
    if (!daemon.joinable()) return;
    try {
      kop::coord::Client(kSocket).shutdown();
    } catch (const std::exception&) {
      server->stop();  // unreachable socket: the loop only polls the flag
    }
    daemon.join();
    server.reset();
  }
  ~CoordRig() { stop(); }
};

/// The union of the full PHI NAS/CCK figure matrices, leased point by
/// point from an in-process coordinator into an empty cache, then read
/// back through the coordinator with MGET.
class NasPhiWorkload : public Workload {
 public:
  NasPhiWorkload(const Options& o, bool inject_dup_done)
      : Workload(o), inject_dup_(inject_dup_done) {}

  void setup() override {
    runner_.reset();  // its lease session leaves the old coordinator first
    rig_.reset();
    fig09_ = harness::fig09_sweep(opts_.minimal);
    jobs::PointMatrix mx;
    add_seeded(mx, harness::enumerate_nas_normalized(fig09_.machine, fig09_.paths,
                                                     fig09_.scales, fig09_.suite),
               pseed_);
    if (!opts_.minimal) {
      const auto scales = harness::phi_scales();
      add_seeded(mx, harness::enumerate_nas_normalized(
                         "phi", {PathKind::kPik}, scales,
                         harness::scale_suite(kop::nas::paper_suite(), 2.0, 4)),
                 pseed_);
      add_seeded(mx, harness::enumerate_cck_matrix(
                         "phi", scales, harness::scale_suite(kop::nas::cck_suite(), 2.0, 4)),
                 pseed_);
    }
    pts_ = mx.points();
    fresh_dir("cache");
    rig_ = std::make_unique<CoordRig>(pts_, "cache");
    jobs::JobOptions jo;
    jo.jobs = kCallers;
    jo.cache_dir = "cache";
    jo.coord_socket = CoordRig::kSocket;
    runner_ = std::make_unique<jobs::JobRunner>(jo);
    std::vector<PointSpec> warm;
    for (PathKind path : {PathKind::kLinuxOmp, PathKind::kRtk, PathKind::kPik,
                          PathKind::kAutoMpLinux, PathKind::kAutoMpNautilus}) {
      PointSpec p;
      p.path = path;
      p.seed = pseed_;
      p.nas = harness::scale_suite(kop::nas::paper_suite(), 0.5, 2).front();
      warm.push_back(p);
    }
    warm_up(warm);
  }

  SweepOut sweep(TraceCtx* tc) override {
    violations_.clear();
    const std::string worker = "kopbench-traced";
    std::unique_ptr<jobs::ResultCache> cache;
    std::unique_ptr<kop::coord::Client> client;
    TraceCtx cx;
    if (tc != nullptr) {
      cache = std::make_unique<jobs::ResultCache>("cache");
      client = std::make_unique<kop::coord::Client>(CoordRig::kSocket);
      client->hello(worker);
      cx = *tc;
      cx.cache = cache.get();
      cx.client = client.get();
      cx.worker = worker;
    }
    const double sims0 = tc != nullptr ? tc->acc->sum("jobs.simulated") : 0.0;
    const double t0 = now_s();
    Batch b = Exec{runner_.get(), tc != nullptr ? &cx : nullptr}.run(pts_);
    if (client != nullptr) client->bye(worker);
    if (inject_dup_) {
      // Self-test only: report one point done a second time.
      kop::coord::Client dup(CoordRig::kSocket);
      dup.hello("kopbench-dup");
      dup.done("kopbench-dup", 1, pts_[0].content_hash());
    }
    SweepOut out = from_batch(b, 0.0);
    readback(out, tc);
    out.wall_s = now_s() - t0;

    // Exactly-once: every point leased once (bar reclaims), simulated
    // once, completed once.
    const std::uint64_t executed =
        tc != nullptr ? static_cast<std::uint64_t>(tc->acc->sum("jobs.simulated") - sims0)
                      : runner_->stats().executed;
    if (tc == nullptr && runner_->cache()->stats().stores != pts_.size())
      violations_.push_back("empty-cache sweep did not store every point");
    runner_.reset();
    rig_->stop();
    const auto& c = rig_->coord->counters();
    leases_ = c.get("leases_granted");
    reclaims_ = c.get("points_requeued");
    dups_ = c.get("completions_dup");
    redundant_ = executed > pts_.size() ? executed - pts_.size() : 0;
    out.failed += dups_ + redundant_;
    if (leases_ - reclaims_ != pts_.size())
      violations_.push_back("leases granted - reclaims = " +
                            std::to_string(leases_ - reclaims_) + " != " +
                            std::to_string(pts_.size()) + " points");
    if (dups_ != 0)
      violations_.push_back(std::to_string(dups_) + " duplicate completion(s)");
    if (redundant_ != 0)
      violations_.push_back(std::to_string(redundant_) + " point(s) simulated twice");

    results_ = std::move(b.results);
    set_digest(pts_, results_);
    if (tc != nullptr) {
      for (std::size_t i = 0; i < pts_.size(); ++i) count_result(pts_[i], results_[i], *tc->acc);
      tc->acc->add("coord.leases_granted", static_cast<double>(leases_));
      tc->acc->add("coord.reclaims", static_cast<double>(reclaims_));
      tc->acc->add("coord.completions_dup", static_cast<double>(dups_));
      tc->acc->add("jobs.redundant_sims", static_cast<double>(redundant_));
    }
    return out;
  }

  void check(Report& rep) override {
    for (const auto& v : violations_) rep.violate(v);
    check_points(pts_, results_, rep);
  }

  /// paper_err_pct: mean |gain - paper| / paper over the fig09 RTK cells
  /// at 1 and 64 CPUs.
  void extra(Report& rep) override {
    rep.note("coord: leases_granted=" + std::to_string(leases_) +
             " reclaims=" + std::to_string(reclaims_) +
             " completions_dup=" + std::to_string(dups_));
    rep.note("CCK (AutoMP) times are unvalidated numerically: the repo holds "
             "no paper values for them");
    if (opts_.minimal) return;
    const auto fig = harness::enumerate_nas_normalized(fig09_.machine, fig09_.paths,
                                                       fig09_.scales, fig09_.suite);
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < pts_.size(); ++i) index[pts_[i].canonical()] = i;
    std::vector<PointResult> fresh;
    for (PointSpec p : fig) {
      p.seed = pseed_;
      fresh.push_back(results_.at(index.at(p.canonical())));
    }
    std::vector<std::string> missing;
    const auto cells = jobs::nas_shape_cells(
        "fig09", fig09_.machine, fig09_.paths, fig09_.scales, fig09_.suite, fresh,
        std::vector<bool>(fresh.size(), true), fresh, &missing);
    const auto paper = load_paper_gains(opts_.data_dir);
    double err = 0.0;
    int n = 0;
    for (const auto& cell : cells) {
      const auto it = paper.find(cell.group + "@" + cell.x_label);
      if (it == paper.end()) continue;
      err += std::abs(cell.fresh_gain - it->second) / it->second;
      ++n;
    }
    if (n != 16) {
      rep.violate("paper_err_pct: matched " + std::to_string(n) +
                  " of 16 fig09 reference cells");
      return;
    }
    rep.set("paper_err_pct", 100.0 * err / n, "%");
  }

 private:
  /// MGET every entry back through the coordinator; each document must
  /// equal the local cache entry byte for byte.
  void readback(SweepOut& out, TraceCtx* tc) {
    kop::coord::Client client(CoordRig::kSocket);
    for (std::size_t lo = 0; lo < pts_.size(); lo += kop::coord::kMgetMaxHashes) {
      const std::size_t hi = std::min(pts_.size(), lo + kop::coord::kMgetMaxHashes);
      std::vector<std::uint64_t> hashes;
      for (std::size_t i = lo; i < hi; ++i) hashes.push_back(pts_[i].content_hash());
      const double t0 = now_s();
      std::vector<kop::coord::Client::GetReply> replies;
      {
        std::uint64_t span = tc != nullptr ? tc->tr->begin("coord.mget64", 0, 0) : 0;
        replies = client.mget(hashes);
        if (tc != nullptr) tc->tr->end(span);
      }
      if (tc != nullptr) tc->acc->sample("coord.mget64_us", (now_s() - t0) * 1e6);
      ++out.attempted;
      for (std::size_t i = lo; i < hi; ++i) {
        const auto& r = replies.at(i - lo);
        if (r.status != "HIT" || r.doc != read_file(rig_->cache->entry_path(pts_[i]))) {
          ++out.failed;
          violations_.push_back("MGET entry for " + pts_[i].label() + " is " + r.status +
                                (r.status == "HIT" ? " with different bytes" : ""));
        }
      }
    }
  }

  bool inject_dup_;
  harness::Fig09Sweep fig09_;
  std::vector<PointSpec> pts_;
  std::unique_ptr<CoordRig> rig_;
  std::unique_ptr<jobs::JobRunner> runner_;
  std::vector<PointResult> results_;
  std::vector<std::string> violations_;
  std::uint64_t redundant_ = 0, leases_ = 0, reclaims_ = 0, dups_ = 0;
};

std::unique_ptr<Workload> make_workload(const Options& o, bool inject_dup = false) {
  if (o.workload == "epcc_8xeon") return std::make_unique<EpccWorkload>(o);
  if (o.workload == "nas_phi") return std::make_unique<NasPhiWorkload>(o, inject_dup);
  throw std::invalid_argument("unknown workload: " + o.workload);
}

double per_sweep(double v, std::size_t sweeps) {
  return sweeps == 0 ? 0.0 : v / static_cast<double>(sweeps);
}

/// Every per-layer metric, from a traced run's spans and counts.
void emit_layers(Report& rep, const Acc& acc, const Tracer& tr, std::size_t sweeps,
                 double traced_wall, double untraced_wall, int workers) {
  auto sum = [&](const std::string& k) { return per_sweep(acc.sum(k), sweeps); };
  auto p50 = [&](const std::string& k) { return median(acc.samples(k)); };
  const double events = acc.sum("sim.events");
  rep.set("sim.events", sum("sim.events"), "count");
  rep.set("sim.host_ns_per_event", events > 0 ? acc.sum("sim.host_s") * 1e9 / events : 0, "ns");
  rep.set("sim.stale_wakes", sum("sim.stale_wakes"), "count");
  rep.set("sim.peak_queue_depth", acc.sum("sim.peak_queue_depth"), "count");
  rep.set("sim.queue_allocs", sum("sim.queue_allocs"), "count");
  rep.set("sim.threads_spawned", sum("sim.threads_spawned"), "count");
  rep.set("core.boot_ms_p50", p50("core.boot_ms"), "ms");
  for (const char* part : {"sync", "sched", "array", "task"})
    rep.set(std::string("komp.epcc_") + part + "_host_s",
            sum(std::string("komp.epcc_") + part + ".host_s"), "s");
  rep.set("komp.epcc_task_events", sum("komp.epcc_task.events"), "count");
  for (const char* k : {"komp.task_steals", "komp.task_steals_remote", "osal.blocking_wakes",
                        "osal.spin_wakes", "linuxmodel.timer_ticks",
                        "linuxmodel.noise_preemptions", "linuxmodel.page_faults",
                        "linuxmodel.tlb_misses", "linuxmodel.futex_waits", "pik.syscalls",
                        "jobs.simulated", "jobs.retries",
                        "jobs.redundant_sims", "coord.leases_granted",
                        "coord.completions_dup", "coord.reclaims"})
    rep.set(k, sum(k), "count");
  rep.set("linuxmodel.host_s", sum("linuxmodel.simulate.host_s"), "s");
  rep.set("linuxmodel.events", sum("linuxmodel.simulate.events"), "count");
  rep.set("rtk.host_s", sum("rtk.simulate.host_s"), "s");
  rep.set("rtk.events", sum("rtk.simulate.events"), "count");
  rep.set("pik.host_s", sum("pik.simulate.host_s"), "s");
  rep.set("pik.events", sum("pik.simulate.events"), "count");
  rep.set("virgil.linux_host_s", sum("virgil.linux_simulate.host_s"), "s");
  rep.set("virgil.nk_host_s", sum("virgil.nk_simulate.host_s"), "s");
  rep.set("virgil.events",
          sum("virgil.linux_simulate.events") + sum("virgil.nk_simulate.events"), "count");
  rep.set("cck.compile_us", p50("cck.compile_us"), "us");
  rep.set("jobs.points", sum("jobs.points"), "count");
  rep.set("jobs.worker_busy_frac",
          traced_wall > 0 ? acc.sum("jobs.busy_s") / (traced_wall * workers) : 0, "ratio");
  rep.set("cache.load_us_p50", p50("cache.load_us"), "us");
  rep.set("cache.store_us_p50", p50("cache.store_us"), "us");
  rep.set("cache.entry_kb", median(acc.samples("cache.entry_kb")), "kb");
  rep.set("coord.lease_us_p50", p50("coord.lease_us"), "us");
  rep.set("coord.done_us_p50", p50("coord.done_us"), "us");
  rep.set("coord.mget64_us_p50", p50("coord.mget64_us"), "us");

  // Self time per layer, and the trace's own sanity bounds.
  const auto self = tr.self_seconds();
  double total = 0.0;
  for (const auto& [layer, s] : self) {
    if (s < -1e-6) rep.violate("negative self time in layer " + layer);
    total += s;
  }
  if (total > traced_wall * workers * 1.001 + 1e-3)
    rep.violate("per-layer self times sum to " + std::to_string(total) +
                " s, more than wall x workers = " + std::to_string(traced_wall * workers));
  for (const char* layer : {"jobs", "core", "cache", "coord", "cck", "komp",
                            "linuxmodel", "rtk", "pik", "virgil"}) {
    const auto it = self.find(layer);
    rep.set(std::string(layer) + ".self_s", per_sweep(it == self.end() ? 0 : it->second, sweeps),
            "s");
  }
  const double traced = per_sweep(traced_wall, sweeps);
  rep.set("trace.wall_s", traced, "s");
  rep.set("trace.untraced_wall_s", untraced_wall, "s");
  rep.set("trace.overhead_s", traced - untraced_wall, "s");
  rep.set("trace.spans", per_sweep(static_cast<double>(tr.size()), sweeps), "count");
}

}  // namespace

void run_workload(const Options& o, Report& rep) {
  auto w = make_workload(o);
  std::vector<double> setups;
  auto timed_setup = [&] {
    const double t0 = now_s();
    w->setup();
    setups.push_back(now_s() - t0);
  };
  for (int i = 0; i < (o.minimal ? 1 : kSetupReps); ++i) timed_setup();

  std::vector<SweepOut> outs;
  Tracer tracer;
  Acc acc;
  std::atomic<std::uint64_t> next_id{0};
  double untraced_wall = 0.0;
  std::uint64_t untraced_digest = 0;
  const double t0 = now_s();
  if (o.trace) {
    // The untraced reference sweep, then traced sweeps, in one budget.
    untraced_wall = w->sweep(nullptr).wall_s;
    untraced_digest = w->digest();
  }
  for (;;) {
    if (o.trace) {
      timed_setup();
      TraceCtx tc;
      tc.tr = &tracer;
      tc.acc = &acc;
      tc.next_id = &next_id;
      outs.push_back(w->sweep(&tc));
      acc.add("jobs.points", static_cast<double>(outs.back().points));
      acc.add("jobs.busy_s", outs.back().busy_s);
      if (w->digest() != untraced_digest)
        rep.violate("traced sweep results differ from the untraced sweep");
    } else {
      outs.push_back(w->sweep(nullptr));
    }
    if (o.minimal || now_s() - t0 + outs.back().wall_s > o.seconds) break;
    if (!o.trace) timed_setup();
  }
  w->check(rep);

  double wall_total = 0.0;
  std::vector<double> walls, rates;
  // Every sweep runs the same points in the same order, so each point's
  // latency is taken as its median over the sweeps before the quantiles
  // are taken over points: the quantiles then have a fixed sample count
  // and do not jump between the matrix's cheap and expensive modes with
  // the number of sweeps a run fits.
  std::vector<std::vector<double>> by_point;
  for (const auto& s : outs) {
    wall_total += s.wall_s;
    walls.push_back(s.wall_s);
    rates.push_back(static_cast<double>(s.points) / s.wall_s);
    if (by_point.empty()) by_point.resize(s.point_ms.size());
    if (s.point_ms.size() != by_point.size())
      rep.violate("sweeps timed " + std::to_string(s.point_ms.size()) + " and " +
                  std::to_string(by_point.size()) + " points");
    for (std::size_t i = 0; i < s.point_ms.size() && i < by_point.size(); ++i)
      by_point[i].push_back(s.point_ms[i]);
    rep.attempted += s.attempted;
    rep.failed += s.failed;
  }
  std::vector<double> point_ms;
  for (auto& v : by_point) point_ms.push_back(median(std::move(v)));
  rep.set("setup_s", median(setups), "s");
  rep.set("wall_s", median(walls), "s");
  rep.set("points_per_s", median(rates), "1/s");
  rep.set("point_ms_p50", quantile(point_ms, 0.5), "ms");
  rep.set("point_ms_p90", quantile(point_ms, 0.9), "ms");
  rep.set("fail_frac",
          rep.attempted > 0 ? static_cast<double>(rep.failed) / rep.attempted : 0, "ratio");
  w->extra(rep);
  char line[160];
  std::snprintf(line, sizeof(line),
                "%zu sweep(s), %zu set-up(s), %zu timed points a sweep, "
                "results digest %s",
                outs.size(), setups.size(), point_ms.size(),
                jobs::hex16(w->digest()).c_str());
  rep.note(line);

  if (o.trace) {
    emit_layers(rep, acc, tracer, outs.size(), wall_total, untraced_wall, kCallers);
    if (!o.trace_path.empty()) tracer.write_json(o.trace_path);
  }
}

std::vector<std::string> fault_checks() {
  std::vector<std::string> problems;
  // A corrupted cache entry is a miss that re-simulates, not a failure.
  {
    fresh_dir("selftest-cache");
    PointSpec p;
    p.path = PathKind::kRtk;
    p.threads = 2;
    p.nas = harness::scale_suite(kop::nas::paper_suite(), 0.5, 2).front();
    jobs::JobOptions jo;
    jo.jobs = 1;
    jo.cache_dir = "selftest-cache";
    std::string first;
    {
      jobs::JobRunner runner(jo);
      first = jobs::ResultCache::encode(p, runner.run({p})[0]);
      std::ofstream(runner.cache()->entry_path(p), std::ios::trunc) << "{\"kop\": tru";
    }
    jobs::JobRunner runner(jo);
    const auto r = runner.run({p});
    if (r[0].failed || runner.stats().failures != 0)
      problems.push_back("corrupted cache entry counted as a failure");
    if (runner.stats().executed != 1 || runner.stats().cache_hits != 0 ||
        runner.cache()->stats().corrupt != 1)
      problems.push_back("corrupted cache entry was not counted as a miss");
    if (jobs::ResultCache::encode(p, r[0]) != first)
      problems.push_back("re-simulated point after corruption differs");
    fs::remove_all("selftest-cache");
  }
  // A duplicate DONE makes nas_phi report a failure.
  {
    Options o;
    o.workload = "nas_phi";
    o.minimal = true;
    auto w = make_workload(o, /*inject_dup=*/true);
    w->setup();
    const SweepOut out = w->sweep(nullptr);
    if (out.failed == 0 || out.attempted == 0)
      problems.push_back("an injected duplicate DONE left fail_frac at 0");
  }
  return problems;
}

}  // namespace perfbench

// The invariant registry: everything propcheck asserts about one run.
//
// One TraceRecorder (an ompt::Tool) observes the whole run through the
// experiment RunHooks; check_case() runs the point twice and evaluates
// each named invariant against the recordings.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <utility>

#include "coord/coordinator.hpp"
#include "harness/jobs/cache.hpp"
#include "harness/jobs/merge.hpp"
#include "harness/propcheck/propcheck.hpp"
#include "ompt/ompt.hpp"
#include "telemetry/counters.hpp"

namespace kop::harness::propcheck {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

// One thread's open worksharing bracket (between its on_work begin and
// end); dispatched chunks attach to the innermost open bracket.
struct Bracket {
  ompt::WorkKind kind = ompt::WorkKind::kLoopStatic;
  std::int64_t iterations = 0;
  std::vector<Interval> intervals;
};

// All threads' closed brackets for the k-th construct of a given kind.
// Worksharing is SPMD: every team member reaches the same constructs in
// the same order, so (kind, per-thread close index) identifies one
// construct instance across threads.
struct Instance {
  std::int64_t iterations = -1;
  bool iterations_agree = true;
  int begins = 0;
  std::vector<Interval> intervals;
};

bool is_dispatching(ompt::WorkKind k) {
  // kStatic splits proportionally with no per-chunk dispatch events,
  // and kSingle/kOrdered never chunk; everything that goes through a
  // shared grab-loop dispatches and must conserve.
  return k == ompt::WorkKind::kLoopStaticChunked ||
         k == ompt::WorkKind::kLoopDynamic ||
         k == ompt::WorkKind::kLoopGuided || k == ompt::WorkKind::kSections;
}

class TraceRecorder : public ompt::Tool {
 public:
  // --- the recordings check_case consumes -----------------------------
  std::uint64_t digest = kFnvOffset;
  bool mono_ok = true;
  std::string mono_detail;
  std::uint64_t task_creates = 0;
  std::uint64_t task_begins = 0;
  std::uint64_t task_ends = 0;
  std::uint64_t task_stolen = 0;
  std::uint64_t rt_submits[2] = {0, 0};
  std::uint64_t rt_begins[2] = {0, 0};
  std::uint64_t rt_ends[2] = {0, 0};
  std::uint64_t rt_stolen = 0;
  std::vector<std::string> work_errors;  // malformed bracket structure
  std::map<std::pair<int, int>, Instance> instances;  // (kind, index)

  // --- ompt::Tool ------------------------------------------------------
  void on_parallel(ompt::Endpoint e, sim::Time t, int team_size) override {
    note(1, e, t, 0, static_cast<std::uint64_t>(team_size));
  }
  void on_implicit_task(ompt::Endpoint e, sim::Time t, int tid,
                        int team_size) override {
    note(2, e, t, tid, static_cast<std::uint64_t>(team_size));
  }
  void on_work(ompt::WorkKind k, ompt::Endpoint e, sim::Time t, int tid,
               std::int64_t iterations) override {
    note(3, e, t, tid,
         fold(static_cast<std::uint64_t>(k),
              static_cast<std::uint64_t>(iterations)));
    auto& stack = open_[tid];
    if (e == ompt::Endpoint::kBegin) {
      stack.push_back(Bracket{k, iterations, {}});
      return;
    }
    if (stack.empty() || stack.back().kind != k) {
      record_work_error("work end without matching begin (tid " +
                        std::to_string(tid) + ", kind " +
                        ompt::work_kind_name(k) + ")");
      return;
    }
    Bracket done = std::move(stack.back());
    stack.pop_back();
    const int idx = closed_[tid][static_cast<int>(k)]++;
    Instance& inst = instances[{static_cast<int>(k), idx}];
    ++inst.begins;
    if (inst.iterations < 0) {
      inst.iterations = done.iterations;
    } else if (inst.iterations != done.iterations) {
      inst.iterations_agree = false;
    }
    inst.intervals.insert(inst.intervals.end(), done.intervals.begin(),
                          done.intervals.end());
  }
  void on_dispatch(sim::Time t, int tid, std::int64_t lo,
                   std::int64_t hi) override {
    note(4, ompt::Endpoint::kBegin, t, tid,
         fold(static_cast<std::uint64_t>(lo), static_cast<std::uint64_t>(hi)));
    auto& stack = open_[tid];
    if (stack.empty()) {
      record_work_error("dispatch outside any worksharing bracket (tid " +
                        std::to_string(tid) + ")");
      return;
    }
    stack.back().intervals.push_back(Interval{lo, hi});
  }
  void on_sync_region(ompt::SyncRegion s, ompt::Endpoint e, sim::Time t,
                      int tid) override {
    note(5, e, t, tid, static_cast<std::uint64_t>(s));
  }
  void on_sync_wait(ompt::Endpoint e, sim::Time t, int tid) override {
    note(6, e, t, tid, 0);
  }
  void on_mutex(ompt::MutexKind k, ompt::MutexEvent ev, sim::Time t,
                const void*) override {
    // The lock address is host-specific; fold only the stable identity.
    note(7, ompt::Endpoint::kBegin, t, 0,
         fold(static_cast<std::uint64_t>(k), static_cast<std::uint64_t>(ev)));
  }
  void on_task_create(sim::Time t, int tid) override {
    note(8, ompt::Endpoint::kBegin, t, tid, 0);
    ++task_creates;
  }
  void on_task_schedule(ompt::Endpoint e, sim::Time t, int tid,
                        bool stolen) override {
    note(9, e, t, tid, stolen ? 1 : 0);
    if (e == ompt::Endpoint::kBegin) {
      ++task_begins;
      if (stolen) ++task_stolen;
    } else {
      ++task_ends;
    }
  }
  void on_rt_task_submit(ompt::TaskRuntimeKind k, sim::Time t,
                         int lane) override {
    note(10, ompt::Endpoint::kBegin, t, lane, static_cast<std::uint64_t>(k));
    ++rt_submits[static_cast<int>(k)];
  }
  void on_rt_task_execute(ompt::TaskRuntimeKind k, ompt::Endpoint e,
                          sim::Time t, int lane, bool stolen) override {
    note(11, e, t, lane,
         fold(static_cast<std::uint64_t>(k), stolen ? 1 : 0));
    if (e == ompt::Endpoint::kBegin) {
      ++rt_begins[static_cast<int>(k)];
      if (stolen) ++rt_stolen;
    } else {
      ++rt_ends[static_cast<int>(k)];
    }
  }

 private:
  void note(int tag, ompt::Endpoint e, sim::Time t, int tid,
            std::uint64_t payload) {
    if (t < last_time_ && mono_ok) {
      mono_ok = false;
      std::ostringstream d;
      d << "event (tag " << tag << ", tid " << tid << ") at t=" << t
        << "ns after an event at t=" << last_time_ << "ns";
      mono_detail = d.str();
    }
    last_time_ = std::max(last_time_, t);
    std::uint64_t h = digest;
    h = fold(h, static_cast<std::uint64_t>(tag) * 2 +
                    (e == ompt::Endpoint::kEnd ? 1 : 0));
    h = fold(h, static_cast<std::uint64_t>(t));
    h = fold(h, static_cast<std::uint64_t>(tid));
    h = fold(h, payload);
    digest = h;
  }

  void record_work_error(std::string msg) {
    if (work_errors.size() < 8) work_errors.push_back(std::move(msg));
  }

  sim::Time last_time_ = 0;
  std::map<int, std::vector<Bracket>> open_;
  std::map<int, std::map<int, int>> closed_;
};

// Everything observable about one run of one case.
struct Observation {
  TraceRecorder trace;
  std::uint64_t engine_digest = 0;
  std::uint64_t events_dispatched = 0;
  sim::Time end_time = 0;
  jobs::PointResult result;
  bool threw = false;
  std::string error;
};

// Run one case and record everything observable.  `racecheck` attaches
// the race detector, which sends every engine wake through the event
// queue (no sleep_for run-ahead) and changes nothing observable.
void observe(const CaseParams& params, Observation* obs,
             bool racecheck = false) {
  const jobs::PointSpec spec = params.point();
  // run_nas/run_epcc directly (not run_point) so the schedule can be
  // set; the scales bind first thing after boot, as run_point binds them.
  RunHooks hooks;
  hooks.on_boot = [obs, &spec](core::Stack& s) {
    jobs::apply_point_scales(s, spec.cost_scales);
    s.os().tools().attach(&obs->trace);
  };
  hooks.on_done = [obs](core::Stack& s) {
    obs->engine_digest = s.engine().stats().dispatch_digest;
    obs->events_dispatched = s.engine().stats().events_dispatched;
    obs->end_time = s.engine().now();
  };
  core::StackConfig cfg = spec.stack_config();
  cfg.sched.policy = params.policy;
  cfg.sched.seed = params.sched_seed;
  cfg.racecheck = racecheck;
  try {
    if (params.kind == jobs::PointSpec::Kind::kNas) {
      run_nas(cfg, spec.nas, &obs->result.metrics, hooks);
    } else {
      obs->result.epcc =
          run_epcc(cfg, spec.epcc_part, spec.epcc, &obs->result.metrics, hooks);
    }
  } catch (const std::exception& e) {
    obs->threw = true;
    obs->error = e.what();
  }
}

void check_work_conservation(const TraceRecorder& trace,
                             std::vector<Violation>* out) {
  for (const auto& err : trace.work_errors) {
    out->push_back({"work-conservation", err});
  }
  for (const auto& [key, inst] : trace.instances) {
    const ompt::WorkKind kind = static_cast<ompt::WorkKind>(key.first);
    const std::string where = std::string(ompt::work_kind_name(kind)) +
                              " instance " + std::to_string(key.second);
    if (!inst.iterations_agree) {
      out->push_back({"work-conservation",
                      where + ": threads disagree on the iteration count"});
      continue;
    }
    if (!is_dispatching(kind)) continue;
    std::vector<Interval> ivs = inst.intervals;
    std::sort(ivs.begin(), ivs.end(),
              [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
    std::int64_t covered = 0;
    bool overlap = false;
    for (std::size_t i = 0; i < ivs.size(); ++i) {
      covered += ivs[i].hi - ivs[i].lo;
      if (i > 0 && ivs[i].lo < ivs[i - 1].hi) overlap = true;
    }
    const std::int64_t span =
        ivs.empty() ? 0 : ivs.back().hi - ivs.front().lo;
    if (overlap) {
      out->push_back({"work-conservation",
                      where + ": dispatched chunks overlap (an iteration "
                              "would execute twice)"});
    } else if (covered != inst.iterations || span != inst.iterations) {
      std::ostringstream d;
      d << where << ": " << covered << " of " << inst.iterations
        << " iterations dispatched (span " << span << ")";
      out->push_back({"work-conservation", d.str()});
    }
  }
}

void check_task_balance(const TraceRecorder& t, std::vector<Violation>* out) {
  if (t.task_creates != t.task_begins || t.task_begins != t.task_ends) {
    std::ostringstream d;
    d << "komp tasks: created " << t.task_creates << ", schedule-begin "
      << t.task_begins << ", schedule-end " << t.task_ends;
    out->push_back({"task-balance", d.str()});
  }
  const char* rt_names[] = {"virgil", "nautilus"};
  for (int k = 0; k < 2; ++k) {
    if (t.rt_submits[k] != t.rt_begins[k] || t.rt_begins[k] != t.rt_ends[k]) {
      std::ostringstream d;
      d << rt_names[k] << " runtime tasks: submitted " << t.rt_submits[k]
        << ", execute-begin " << t.rt_begins[k] << ", execute-end "
        << t.rt_ends[k];
      out->push_back({"task-balance", d.str()});
    }
  }
}

void check_cache_roundtrip(const CaseParams& params, const jobs::PointSpec& spec,
                           const jobs::PointResult& result,
                           const std::string& scratch_dir,
                           std::vector<Violation>* out) {
  namespace fs = std::filesystem;
  const std::string dir =
      scratch_dir + "/case-" + jobs::hex16(jobs::fnv1a64(params.token()));
  const std::string expect = jobs::ResultCache::encode(spec, result);
  auto fail = [&](const std::string& d) {
    out->push_back({"cache-roundtrip", d});
  };
  {
    jobs::ResultCache first(dir + "/a");
    first.store(spec, result);
    jobs::PointResult loaded;
    if (!first.load(spec, &loaded)) {
      fail("load immediately after store missed");
    } else if (jobs::ResultCache::encode(spec, loaded) != expect) {
      fail("entry decoded from the cache re-encodes differently");
    }
    jobs::MergeOptions mopts;
    mopts.sources = {dir + "/a"};
    mopts.dest = dir + "/b";
    try {
      const jobs::MergeReport rep = jobs::merge_caches(mopts);
      if (!rep.ok() || rep.merged != 1) {
        fail("merge of a freshly stored entry failed: " + rep.text());
      } else {
        jobs::ResultCache merged(dir + "/b");
        jobs::PointResult reloaded;
        if (!merged.load(spec, &reloaded)) {
          fail("load from the merged cache missed");
        } else if (jobs::ResultCache::encode(spec, reloaded) != expect) {
          fail("entry surviving a merge re-encodes differently");
        }
      }
    } catch (const std::exception& e) {
      fail(std::string("merge threw: ") + e.what());
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);  // best-effort scratch hygiene
}

// Exactly-once dispatch under the sweep coordinator: drive the
// clockless Coordinator through a full synthetic sweep with a random
// worker-crash and worker-stall schedule (all derived from the case
// token, so replaying the token replays the exact schedule) and assert
// that the sweep drains and every point is completed exactly once --
// crashes and stalls past the dead window may re-*dispatch* a point,
// but only one completion is ever accepted, and re-dispatch only
// happens after a reclaim.
void check_exactly_once_dispatch(const CaseParams& params,
                                 std::vector<Violation>* out) {
  const std::uint64_t seed = jobs::fnv1a64(params.token());
  std::mt19937_64 rng(seed);
  auto rand_in = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  auto violate = [out](std::string detail) {
    out->push_back({"exactly-once-dispatch", std::move(detail)});
  };

  // Short synthetic timescales: Suspect and Dead are reachable
  // mid-point, yet one immortal worker drains any schedule.
  coord::CoordinatorOptions copt;
  copt.liveness.suspect_after_ms = 180;
  copt.liveness.dead_after_ms = 420;
  coord::Coordinator coordinator(copt, {});

  const int n_points = rand_in(3, 10);
  std::vector<std::uint64_t> hashes;
  for (int i = 0; i < n_points; ++i) {
    std::uint64_t h = fold(seed, static_cast<std::uint64_t>(i) + 1);
    while (h == 0 ||
           std::find(hashes.begin(), hashes.end(), h) != hashes.end()) {
      ++h;
    }
    hashes.push_back(h);
    coord::PointInfo info;
    info.hash = h;
    info.label = "synthetic-" + std::to_string(i);
    coordinator.add_point(std::move(info));
  }

  constexpr std::int64_t kStepMs = 25;
  constexpr int kMaxSteps = 4000;

  struct SimWorker {
    std::string name;
    std::int64_t crash_at = -1;  // silent SIGKILL; -1 = immortal
    bool crashed = false;
    bool helloed = false;
    bool holding = false;
    std::uint64_t lease_id = 0;
    std::uint64_t point = 0;
    std::int64_t finish_at = 0;
    std::int64_t stalled_until = 0;  // silent (stopped) until then
  };
  std::vector<SimWorker> workers(static_cast<std::size_t>(rand_in(2, 4)));
  for (std::size_t w = 0; w < workers.size(); ++w) {
    workers[w].name = "w" + std::to_string(w);
    // Worker 0 never crashes, so every schedule eventually drains.
    if (w > 0) workers[w].crash_at = rand_in(0, 2000);
  }

  std::map<std::uint64_t, int> accepted;  // hash -> OK/OK-STALE completions
  auto send = [&coordinator](const std::string& line, std::int64_t now) {
    return coordinator.handle_line(line, now);
  };

  std::int64_t now = 0;
  for (int step = 0; step < kMaxSteps && !coordinator.drained(); ++step) {
    now = step * kStepMs;
    coordinator.tick(now);
    for (auto& w : workers) {
      if (w.crashed) continue;
      if (w.crash_at >= 0 && now >= w.crash_at) {
        w.crashed = true;  // vanishes mid-lease: reclaim must cover it
        continue;
      }
      if (now < w.stalled_until) continue;
      if (!w.helloed) {
        send("HELLO " + w.name, now);
        w.helloed = true;
        continue;
      }
      if (w.holding) {
        if (now >= w.finish_at) {
          const std::string r = send("DONE " + w.name + " " +
                                         coord::to_hex16(w.lease_id) + " " +
                                         coord::to_hex16(w.point),
                                     now);
          if (r == "OK" || r == "OK-STALE") ++accepted[w.point];
          w.holding = false;
        } else if (rand_in(0, 29) == 0) {
          // A stall now and then (a stopped or starved process), often
          // past the dead window: its lease is reclaimed and re-granted,
          // so the stale-completion path is actually exercised.
          w.stalled_until = now + rand_in(100, 800);
        } else {
          (void)send("PING " + w.name, now);
        }
        continue;
      }
      const std::string r = send("NEXT " + w.name, now);
      const auto toks = coord::split_tokens(r);
      if (!toks.empty() && toks[0] == "GRANT") {
        coord::parse_hex16(toks[1], &w.point);
        coord::parse_hex16(toks[2], &w.lease_id);
        w.holding = true;
        // Some points outlive the suspect window several times over.
        w.finish_at = now + rand_in(20, 300);
      } else if (!toks.empty() && (toks[0] == "DEAD" || toks[0] == "NOHELLO")) {
        w.helloed = false;  // come back as a new incarnation
      }
    }
  }

  if (!coordinator.drained()) {
    violate("sweep did not drain in " + std::to_string(kMaxSteps) +
            " steps: " + coordinator.stats_json());
    return;
  }
  for (const std::uint64_t h : hashes) {
    const int n = accepted.count(h) ? accepted.at(h) : 0;
    // 0 accepted worker completions is legal only via mark_complete
    // paths the coordinator itself counts; here every completion comes
    // from a DONE, so the count must be exactly 1.
    if (n != 1) {
      violate("point " + coord::to_hex16(h) + " had " + std::to_string(n) +
              " accepted completions (want exactly 1)");
    }
  }
  const auto& counters = coordinator.counters();
  if (counters.get("completions") != static_cast<std::uint64_t>(n_points)) {
    violate("coordinator counted " +
            std::to_string(counters.get("completions")) + " completions for " +
            std::to_string(n_points) + " points");
  }
  // Every grant beyond the first per point must be justified by a
  // reclaim (death or BYE) -- dispatch is never duplicated
  // while a live lease exists.
  if (counters.get("leases_granted") >
      static_cast<std::uint64_t>(n_points) + counters.get("points_requeued")) {
    violate("granted " + std::to_string(counters.get("leases_granted")) +
            " leases for " + std::to_string(n_points) + " points with only " +
            std::to_string(counters.get("points_requeued")) + " requeues");
  }
}

// Journal replay: a journaled coordinator killed at an arbitrary
// committed moment must restart from its journal file alone.  Drive a
// journaled Coordinator through a random schedule (same synthetic-time
// machinery as exactly-once-dispatch, seed-derived so the token replays
// the exact crash), stop at a random step, and replay the journal into
// a fresh coordinator: it must render as the restart table -- every
// registered point with its entry, payload and label, exactly the live
// table's completed points complete, no leases, the rest queued in
// registration order.  A torn tail appended to the file (the
// crash-mid-append artifact) must be tolerated without changing the
// replayed state, and a checksum-corrupted *terminated* record must be
// rejected.
void check_journal_replay(const CaseParams& params,
                          const std::string& scratch_dir,
                          std::vector<Violation>* out) {
  namespace fs = std::filesystem;
  const std::uint64_t seed =
      fold(jobs::fnv1a64(params.token()), 0x6a6f75726e616cULL);
  std::mt19937_64 rng(seed);
  auto rand_in = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  auto violate = [out](std::string detail) {
    out->push_back({"journal-replay", std::move(detail)});
  };

  const std::string dir = scratch_dir + "/journal-" + jobs::hex16(seed);
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path = dir + "/queue.journal";

  coord::CoordinatorOptions copt;
  copt.liveness.suspect_after_ms = 180;
  copt.liveness.dead_after_ms = 420;

  std::string expected;
  try {
    coord::Coordinator live(copt, {});
    coord::Journal journal(path);
    live.attach_journal(&journal);

    const int n_points = rand_in(3, 8);
    std::vector<coord::PointInfo> registered;
    for (int i = 0; i < n_points; ++i) {
      std::uint64_t h = fold(seed, static_cast<std::uint64_t>(i) + 0x51);
      if (h == 0) ++h;
      coord::PointInfo info;
      info.hash = h;
      info.entry = jobs::ResultCache::entry_name(h);
      info.label = "journal-" + std::to_string(i);
      info.payload = "tok" + std::to_string(i);
      registered.push_back(info);
      live.add_point(std::move(info));
    }

    struct SimWorker {
      std::string name;
      bool helloed = false;
      bool holding = false;
      std::uint64_t lease_id = 0;
      std::uint64_t point = 0;
      std::int64_t finish_at = 0;
      std::int64_t stalled_until = 0;
    };
    std::vector<SimWorker> workers(static_cast<std::size_t>(rand_in(1, 3)));
    for (std::size_t w = 0; w < workers.size(); ++w) {
      workers[w].name = "jw" + std::to_string(w);
    }

    constexpr std::int64_t kStepMs = 25;
    const int stop_step = rand_in(4, 120);  // the "SIGKILL" moment
    for (int step = 0; step < stop_step && !live.drained(); ++step) {
      const std::int64_t now = step * kStepMs;
      live.tick(now);
      for (auto& w : workers) {
        if (now < w.stalled_until) continue;
        if (!w.helloed) {
          (void)live.handle_line("HELLO " + w.name, now);
          w.helloed = true;
          continue;
        }
        if (w.holding) {
          if (now >= w.finish_at) {
            (void)live.handle_line("DONE " + w.name + " " +
                                       coord::to_hex16(w.lease_id) + " " +
                                       coord::to_hex16(w.point),
                                   now);
            w.holding = false;
          } else if (rand_in(0, 29) == 0) {
            w.stalled_until = now + rand_in(100, 800);  // may die meanwhile
          } else {
            (void)live.handle_line("PING " + w.name, now);
          }
          continue;
        }
        const std::string r = live.handle_line("NEXT " + w.name, now);
        const auto toks = coord::split_tokens(r);
        if (!toks.empty() && toks[0] == "GRANT") {
          coord::parse_hex16(toks[1], &w.point);
          coord::parse_hex16(toks[2], &w.lease_id);
          w.holding = true;
          w.finish_at = now + rand_in(20, 260);
        } else if (!toks.empty() && (toks[0] == "DEAD" || toks[0] == "NOHELLO")) {
          w.helloed = false;
        }
      }
    }
    // The durability boundary: everything committed is replayable,
    // anything after this commit would be re-derivable loss (not
    // exercised here -- this invariant checks exactness *of the file*).
    journal.commit();
    coord::LeaseTable restart;
    for (const auto& info : registered) restart.add_point(info);
    for (const auto& info : registered) {
      if (live.leases().point_state(info.hash) ==
          coord::PointState::kComplete) {
        restart.mark_complete(info.hash);
      }
    }
    expected = restart.debug_dump();
  } catch (const std::exception& e) {
    violate(std::string("journaled schedule threw: ") + e.what());
    fs::remove_all(dir, ec);
    return;
  }

  const auto replay_into = [&copt](const std::string& file, std::string* state,
                                   coord::ReplayStats* stats,
                                   std::string* error) {
    coord::Coordinator fresh(copt, {});
    if (!fresh.recover_from_journal(file, stats, error)) return false;
    *state = fresh.debug_state();
    return true;
  };

  coord::ReplayStats stats;
  std::string err, replayed;
  if (!replay_into(path, &replayed, &stats, &err)) {
    violate("clean journal failed to replay: " + err);
  } else if (replayed != expected) {
    violate("replayed table differs from the restart table\n--- restart ---\n" +
            expected + "--- replayed ---\n" + replayed);
  } else if (stats.truncated_bytes != 0) {
    violate("clean journal reported " + std::to_string(stats.truncated_bytes) +
            " truncated bytes");
  }

  // Crash-mid-append artifact: an unterminated partial record at the
  // tail is dropped and reported, and the replayed state is unchanged.
  {
    const std::string torn = dir + "/torn.journal";
    fs::copy_file(path, torn, fs::copy_options::overwrite_existing, ec);
    std::ofstream app(torn, std::ios::binary | std::ios::app);
    app << "D 00000000000000";  // no '\n': a torn write
    app.close();
    coord::ReplayStats tstats;
    std::string terr, tstate;
    if (!replay_into(torn, &tstate, &tstats, &terr)) {
      violate("torn tail rejected instead of tolerated: " + terr);
    } else {
      if (tstats.truncated_bytes == 0) {
        violate("torn tail was not reported as truncated");
      }
      if (tstate != expected) {
        violate("torn tail changed the replayed table");
      }
    }
  }

  // A *terminated* record with a broken checksum is corruption and must
  // be a hard error, never silently skipped.
  {
    const std::string bad = dir + "/corrupt.journal";
    fs::copy_file(path, bad, fs::copy_options::overwrite_existing, ec);
    std::ofstream app(bad, std::ios::binary | std::ios::app);
    app << "D 00000000000000aa !0000000000000bad\n";
    app.close();
    coord::ReplayStats bstats;
    std::string berr, bstate;
    if (replay_into(bad, &bstate, &bstats, &berr)) {
      violate("checksum-corrupt record was accepted");
    } else if (berr.find("checksum") == std::string::npos) {
      violate("corrupt-record error does not name the checksum: " + berr);
    }
  }

  fs::remove_all(dir, ec);  // best-effort scratch hygiene
}

}  // namespace

std::vector<std::string> invariant_names() {
  return {"run-completes",    "time-monotonic",       "work-conservation",
          "task-balance",     "steal-accounting",     "counter-conservation",
          "determinism",      "cache-roundtrip",      "exactly-once-dispatch",
          "journal-replay"};
}

CaseOutcome check_case(const CaseParams& params, const CheckOptions& opt) {
  CaseOutcome out;
  out.params = params;
  auto violate = [&](const char* inv, std::string detail) {
    out.violations.push_back({inv, std::move(detail)});
  };

  Observation a;
  observe(params, &a);
  if (a.threw) {
    violate("run-completes", a.error);
    out.digest = fold(kFnvOffset, jobs::fnv1a64(a.error));
    return out;
  }
  const jobs::PointSpec spec = params.point();
  const std::string encoded = jobs::ResultCache::encode(spec, a.result);
  out.digest = fold(fold(fold(kFnvOffset, a.engine_digest), a.trace.digest),
                    jobs::fnv1a64(encoded));

  if (!a.trace.mono_ok) violate("time-monotonic", a.trace.mono_detail);
  check_work_conservation(a.trace, &out.violations);
  check_task_balance(a.trace, &out.violations);

  const std::uint64_t observed_steals = a.trace.task_stolen + a.trace.rt_stolen;
  const std::uint64_t counted_steals =
      a.result.metrics.counters.total(telemetry::Counter::kTaskSteals);
  if (observed_steals != counted_steals) {
    std::ostringstream d;
    d << "OMPT observed " << observed_steals
      << " stolen executions but telemetry counted " << counted_steals;
    violate("steal-accounting", d.str());
  }
  for (const auto& msg :
       telemetry::check_conservation(a.result.metrics.counters)) {
    violate("counter-conservation", msg);
  }

  // Determinism: the second run must replay the first bit-for-bit, and
  // it takes the queue for every wake, so each run-ahead dispatch of the
  // first run is checked against the queue's.
  Observation b;
  observe(params, &b, /*racecheck=*/true);
  if (b.threw) {
    violate("determinism", "second run threw: " + b.error);
  } else {
    if (a.engine_digest != b.engine_digest ||
        a.events_dispatched != b.events_dispatched) {
      std::ostringstream d;
      d << "engine dispatch digest " << jobs::hex16(a.engine_digest) << " ("
        << a.events_dispatched << " events) vs "
        << jobs::hex16(b.engine_digest) << " (" << b.events_dispatched
        << " events)";
      violate("determinism", d.str());
    }
    if (a.trace.digest != b.trace.digest) {
      violate("determinism",
              "OMPT trace digest " + jobs::hex16(a.trace.digest) + " vs " +
                  jobs::hex16(b.trace.digest));
    }
    if (a.end_time != b.end_time) {
      violate("determinism", "final virtual time " +
                                 std::to_string(a.end_time) + "ns vs " +
                                 std::to_string(b.end_time) + "ns");
    }
    if (jobs::ResultCache::encode(spec, b.result) != encoded) {
      violate("determinism", "metrics documents differ between runs");
    }
  }

  if (!opt.scratch_dir.empty()) {
    check_cache_roundtrip(params, spec, a.result, opt.scratch_dir,
                          &out.violations);
    check_journal_replay(params, opt.scratch_dir, &out.violations);
  }
  check_exactly_once_dispatch(params, &out.violations);
  return out;
}

}  // namespace kop::harness::propcheck

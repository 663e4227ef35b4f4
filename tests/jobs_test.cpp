// Experiment job subsystem tests: PointSpec canonical forms and
// content hashes, the cost-model fingerprint, the on-disk ResultCache
// (hit / invalidation / corruption recovery), the JobRunner pool
// (input-order results, dedup, failure capture + retry), per-point
// cost scales bound at boot, and the thread-safety smoke for
// concurrent run_nas into one MetricsSink (run under
// -DKOP_SANITIZE=thread in CI).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/figures.hpp"
#include "harness/jobs/cache.hpp"
#include "harness/jobs/point.hpp"
#include "harness/jobs/runner.hpp"
#include "harness/metrics.hpp"
#include "hw/cost_params.hpp"
#include "telemetry/metrics.hpp"

namespace {

namespace fs = std::filesystem;
using kop::core::PathKind;
using kop::harness::EpccPart;
using kop::harness::MetricsSink;
using kop::harness::RunMetrics;
using kop::harness::jobs::JobOptions;
using kop::harness::jobs::JobRunner;
using kop::harness::jobs::PointMatrix;
using kop::harness::jobs::PointResult;
using kop::harness::jobs::PointSpec;
using kop::harness::jobs::ResultCache;

// A NAS point cheap enough to simulate many times in a unit test.
PointSpec tiny_nas_point(PathKind path = PathKind::kLinuxOmp, int threads = 2) {
  PointSpec p;
  p.kind = PointSpec::Kind::kNas;
  p.machine = "phi";
  p.path = path;
  p.threads = threads;
  p.nas = kop::harness::scale_suite({kop::nas::ep()}, 0.1, 1)[0];
  return p;
}

PointSpec tiny_epcc_point(PathKind path = PathKind::kLinuxOmp,
                          int threads = 2) {
  PointSpec p;
  p.kind = PointSpec::Kind::kEpcc;
  p.machine = "phi";
  p.path = path;
  p.threads = threads;
  p.epcc_part = EpccPart::kSync;
  p.epcc.outer_reps = 2;
  p.epcc.inner_iters = 2;
  return p;
}

// Fresh scratch dir per test; removed up front so reruns start cold.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("kop_jobs_test_" + name);
  fs::remove_all(dir);
  return dir.string();
}

// --- canonical form and hashing --------------------------------------

TEST(PointSpec, CanonicalIsStableAndStartsWithVersionTag) {
  const PointSpec p = tiny_nas_point();
  EXPECT_EQ(p.canonical(), p.canonical());
  EXPECT_EQ(p.canonical().rfind("point-v1|", 0), 0u);
  EXPECT_EQ(p.content_hash(), kop::harness::jobs::fnv1a64(p.canonical()));
}

TEST(PointSpec, EveryAxisChangesTheCanonicalForm) {
  const PointSpec base = tiny_nas_point();
  std::set<std::string> forms = {base.canonical()};

  PointSpec p = base;
  p.threads = 4;
  EXPECT_TRUE(forms.insert(p.canonical()).second);
  p = base;
  p.path = PathKind::kRtk;
  EXPECT_TRUE(forms.insert(p.canonical()).second);
  p = base;
  p.machine = "8xeon";
  EXPECT_TRUE(forms.insert(p.canonical()).second);
  p = base;
  p.first_touch = 0;
  EXPECT_TRUE(forms.insert(p.canonical()).second);
  p = base;
  p.first_touch = 1;
  EXPECT_TRUE(forms.insert(p.canonical()).second);
  p = base;
  p.rtk_use_pte = true;
  EXPECT_TRUE(forms.insert(p.canonical()).second);
  p = base;
  p.seed = 7;
  EXPECT_TRUE(forms.insert(p.canonical()).second);
  // NUMA-scheduler knobs move the fingerprint, and only when set: the
  // defaults keep historical canonical bytes (append-when-non-default,
  // like cost_scales), so pre-existing caches stay valid.
  EXPECT_EQ(base.canonical().find("numa="), std::string::npos);
  EXPECT_EQ(base.canonical().find("migrate="), std::string::npos);
  p = base;
  p.numa_sched_hier = true;
  EXPECT_TRUE(forms.insert(p.canonical()).second);
  p = base;
  p.numa_migrate = true;
  EXPECT_TRUE(forms.insert(p.canonical()).second);
  p = base;
  p.numa_sched_hier = true;
  p.numa_migrate = true;
  EXPECT_TRUE(forms.insert(p.canonical()).second);
  // Workload parameters: a different --scale factor must not alias.
  p = base;
  p.nas.loops[0].per_iter_ns *= 2.0;
  EXPECT_TRUE(forms.insert(p.canonical()).second);
  p = base;
  p.nas.timesteps += 1;
  EXPECT_TRUE(forms.insert(p.canonical()).second);
  // EPCC points are a different family entirely.
  EXPECT_TRUE(forms.insert(tiny_epcc_point().canonical()).second);
  PointSpec e = tiny_epcc_point();
  e.epcc.inner_iters = 3;
  EXPECT_TRUE(forms.insert(e.canonical()).second);
  e = tiny_epcc_point();
  e.epcc_part = EpccPart::kSched;
  EXPECT_TRUE(forms.insert(e.canonical()).second);
  // Cost scales append one `boot_scale=` token each -- named for when
  // they bind, so a scaled point never shares a key with results bound
  // any other way -- and the bare point carries none.
  EXPECT_EQ(base.canonical().find("scale="), std::string::npos);
  p = base;
  p.cost_scales.push_back({"linux.minor_fault_ns", 4.0});
  EXPECT_NE(p.canonical().find("|boot_scale=linux.minor_fault_ns:4"),
            std::string::npos)
      << p.canonical();
  EXPECT_NE(ResultCache::key(p), ResultCache::key(base));
  EXPECT_TRUE(forms.insert(p.canonical()).second);
}

TEST(PointSpec, CostModelFingerprintIsStable) {
  EXPECT_EQ(kop::harness::jobs::cost_model_fingerprint(),
            kop::harness::jobs::cost_model_fingerprint());
  EXPECT_NE(kop::harness::jobs::cost_model_fingerprint(), 0u);
}

TEST(PointMatrix, DedupsAndPreservesOrder) {
  PointMatrix mx;
  const std::size_t a = mx.add(tiny_nas_point(PathKind::kLinuxOmp, 1));
  const std::size_t b = mx.add(tiny_nas_point(PathKind::kLinuxOmp, 2));
  const std::size_t a2 = mx.add(tiny_nas_point(PathKind::kLinuxOmp, 1));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(a2, a);
  EXPECT_EQ(mx.size(), 2u);
  EXPECT_EQ(mx.points()[0].threads, 1);
  EXPECT_EQ(mx.points()[1].threads, 2);
}

// --- cache keying and entry format -----------------------------------

TEST(ResultCache, KeyCoversHashFingerprintAndSchemaVersion) {
  const PointSpec p = tiny_nas_point();
  const PointSpec q = tiny_nas_point(PathKind::kRtk);
  const std::uint64_t k = ResultCache::key(p);
  EXPECT_EQ(k, ResultCache::key(p));
  EXPECT_NE(k, ResultCache::key(q));
  // A cost-model recalibration (different fingerprint) must invalidate.
  EXPECT_NE(k, ResultCache::key(
                   p, kop::harness::jobs::cost_model_fingerprint() ^ 1));
  // A schema bump must invalidate.
  EXPECT_NE(k, ResultCache::key(p, kop::harness::jobs::cost_model_fingerprint(),
                                kop::telemetry::kMetricsSchemaVersion + 1));
}

TEST(ResultCache, EncodeIsValidMetricsDocumentAndDecodesExactly) {
  const PointSpec p = tiny_nas_point();
  const PointResult r = kop::harness::jobs::run_point(p);

  const std::string doc = ResultCache::encode(p, r);
  // Entries are full kop-metrics v1 documents: metrics_lint accepts
  // the cache directory.
  const auto problems = kop::telemetry::validate_metrics_json(doc);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());

  PointResult back;
  ASSERT_TRUE(ResultCache::decode(doc, p, &back));
  EXPECT_TRUE(back.from_cache);
  EXPECT_EQ(back.metrics.label, r.metrics.label);
  EXPECT_EQ(back.metrics.timed_seconds, r.metrics.timed_seconds);  // exact
  EXPECT_EQ(back.metrics.init_seconds, r.metrics.init_seconds);
  EXPECT_EQ(back.metrics.counters.totals, r.metrics.counters.totals);

  // The sidecar pins the canonical form: a different spec (even one
  // that hypothetically collided on the hash) is rejected.
  PointResult wrong;
  EXPECT_FALSE(ResultCache::decode(doc, tiny_nas_point(PathKind::kRtk),
                                   &wrong));
}

TEST(ResultCache, EpccSamplesRoundTrip) {
  const PointSpec p = tiny_epcc_point();
  const PointResult r = kop::harness::jobs::run_point(p);
  ASSERT_FALSE(r.epcc.empty());

  PointResult back;
  ASSERT_TRUE(ResultCache::decode(ResultCache::encode(p, r), p, &back));
  ASSERT_EQ(back.epcc.size(), r.epcc.size());
  for (std::size_t i = 0; i < r.epcc.size(); ++i) {
    EXPECT_EQ(back.epcc[i].name, r.epcc[i].name);
    EXPECT_EQ(back.epcc[i].group, r.epcc[i].group);
    EXPECT_EQ(back.epcc[i].reference, r.epcc[i].reference);
    // Bit-exact sample vectors: mean +- sd tables reprint identically.
    EXPECT_EQ(back.epcc[i].overhead_us.samples(),
              r.epcc[i].overhead_us.samples());
  }
}

TEST(ResultCache, HitOnRerunAndCorruptEntryRecovery) {
  const std::string dir = scratch_dir("corrupt");
  const PointSpec p = tiny_nas_point();
  const PointResult r = kop::harness::jobs::run_point(p);

  ResultCache cache(dir);
  PointResult out;
  EXPECT_FALSE(cache.load(p, &out));  // cold
  cache.store(p, r);
  EXPECT_TRUE(cache.load(p, &out));  // warm
  EXPECT_TRUE(out.from_cache);
  EXPECT_EQ(out.metrics.timed_seconds, r.metrics.timed_seconds);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Corrupt the entry on disk: load degrades to a miss, never throws.
  {
    std::ofstream f(cache.entry_path(p), std::ios::trunc);
    f << "{ not json";
  }
  EXPECT_FALSE(cache.load(p, &out));
  EXPECT_EQ(cache.stats().corrupt, 1u);
  // Re-store repairs it.
  cache.store(p, r);
  EXPECT_TRUE(cache.load(p, &out));
  fs::remove_all(dir);
}

TEST(ResultCache, TruncatedEntryRecoversAsMiss) {
  // A writer killed mid-flush leaves a prefix of valid JSON; the loader
  // must treat it as a miss and let a re-store repair it.
  const std::string dir = scratch_dir("truncated");
  const PointSpec p = tiny_nas_point();
  const PointResult r = kop::harness::jobs::run_point(p);
  ResultCache cache(dir);
  cache.store(p, r);

  std::ifstream in(cache.entry_path(p), std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(text.size(), 64u);
  std::ofstream(cache.entry_path(p), std::ios::binary | std::ios::trunc)
      << text.substr(0, text.size() / 2);

  PointResult out;
  EXPECT_FALSE(cache.load(p, &out));
  EXPECT_EQ(cache.stats().corrupt, 1u);
  cache.store(p, r);
  EXPECT_TRUE(cache.load(p, &out));
  fs::remove_all(dir);
}

TEST(ResultCache, WrongSchemaVersionRecoversAsMiss) {
  // An entry written by a future (or ancient) build sits at the right
  // path only if someone renamed it; either way the document's own
  // version stamp disqualifies it.
  const std::string dir = scratch_dir("schema");
  const PointSpec p = tiny_nas_point();
  const PointResult r = kop::harness::jobs::run_point(p);
  ResultCache cache(dir);
  cache.store(p, r);

  std::ifstream in(cache.entry_path(p), std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::string stamp =
      "\"version\":" + std::to_string(kop::telemetry::kMetricsSchemaVersion);
  const auto pos = text.find(stamp);
  ASSERT_NE(pos, std::string::npos) << text.substr(0, 120);
  text.replace(
      pos, stamp.size(),
      "\"version\":" +
          std::to_string(kop::telemetry::kMetricsSchemaVersion + 1));
  std::ofstream(cache.entry_path(p), std::ios::binary | std::ios::trunc)
      << text;

  PointResult out;
  EXPECT_FALSE(cache.load(p, &out));
  EXPECT_EQ(cache.stats().corrupt, 1u);
  cache.store(p, r);
  EXPECT_TRUE(cache.load(p, &out));
  fs::remove_all(dir);
}

TEST(ResultCache, FingerprintMismatchRecoversAsMiss) {
  // Right filename, right canonical form, but the sidecar records a
  // different cost-model calibration: stale, not a hit.
  const std::string dir = scratch_dir("fingerprint");
  const PointSpec p = tiny_nas_point();
  const PointResult r = kop::harness::jobs::run_point(p);
  ResultCache cache(dir);
  cache.store(p, r);

  std::ifstream in(cache.entry_path(p), std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::string fp = kop::harness::jobs::hex16(
      kop::harness::jobs::cost_model_fingerprint());
  const auto pos = text.find(fp);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, fp.size(), "00000000deadbeef");
  std::ofstream(cache.entry_path(p), std::ios::binary | std::ios::trunc)
      << text;

  PointResult out;
  EXPECT_FALSE(cache.load(p, &out));
  EXPECT_EQ(cache.stats().corrupt, 1u);
  // The baseline reader is fingerprint-agnostic by contract and still
  // accepts the same bytes.
  PointResult cross;
  EXPECT_TRUE(ResultCache::decode(text, p, &cross,
                                  /*require_fingerprint=*/false));
  cache.store(p, r);
  EXPECT_TRUE(cache.load(p, &out));
  fs::remove_all(dir);
}

TEST(ResultCache, PublishLeavesOnlyWholeFiles) {
  // A new name is linked to a complete unnamed file; an existing one is
  // replaced through a renamed temporary.  Neither leaves a *.tmp.
  using kop::harness::jobs::publish_file;
  const std::string dir = scratch_dir("publish");
  fs::create_directories(dir);
  const std::string path = dir + "/kop-0123456789abcdef.json";
  auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  auto names = [&] {
    std::vector<std::string> out;
    for (const auto& e : fs::directory_iterator(dir))
      out.push_back(e.path().filename().string());
    return out;
  };
  ASSERT_TRUE(publish_file(path, "first, longer document\n"));
  EXPECT_EQ(slurp(path), "first, longer document\n");
  ASSERT_TRUE(publish_file(path, "second\n"));
  EXPECT_EQ(slurp(path), "second\n");
  EXPECT_EQ(names(), std::vector<std::string>{"kop-0123456789abcdef.json"});
  // No directory to write into: nothing is published.
  EXPECT_FALSE(publish_file(dir + "/absent/kop-x.json", "x\n"));
  EXPECT_EQ(names(), std::vector<std::string>{"kop-0123456789abcdef.json"});
  fs::remove_all(dir);
}

// --- per-point cost scales --------------------------------------------

// A scale binds right after boot, so the untimed NAS init phase (the
// first touch of every region, where Linux takes its minor faults) runs
// at the scaled cost too.
TEST(CostScales, BindBeforeTheWorkloadRuns) {
  const PointSpec bare = tiny_nas_point();
  PointSpec scaled = bare;
  scaled.cost_scales.push_back({"linux.minor_fault_ns", 4.0});
  const PointResult a = kop::harness::jobs::run_point(bare);
  const PointResult b = kop::harness::jobs::run_point(scaled);
  ASSERT_GT(a.metrics.counters.total(kop::telemetry::Counter::kPageFaults),
            0u);
  EXPECT_GT(b.metrics.init_seconds, a.metrics.init_seconds);
}

// The caller's on_boot runs in addition to the binding, never instead
// of it: the scaled result is the same with or without a hook.
TEST(CostScales, CallerOnBootDoesNotTakeOverBinding) {
  PointSpec p = tiny_nas_point();
  p.cost_scales.push_back({"linux.compute_inflation", 2.0});
  int boots = 0;
  kop::harness::RunHooks hooks;
  hooks.on_boot = [&boots](kop::core::Stack&) { ++boots; };
  const PointResult hooked = kop::harness::jobs::run_point(p, hooks);
  EXPECT_EQ(boots, 1);
  EXPECT_EQ(ResultCache::encode(p, hooked),
            ResultCache::encode(p, kop::harness::jobs::run_point(p)));

  PointSpec bare = p;
  bare.cost_scales.clear();
  EXPECT_GT(hooked.metrics.timed_seconds,
            kop::harness::jobs::run_point(bare).metrics.timed_seconds);
}

// Every key kop_bisect --list-params prints binds on a stack of its
// personality and is skipped on the other; unknown fields throw.
TEST(CostScales, EveryListedKeyAppliesAndUnknownFieldsThrow) {
  const auto names = kop::hw::cost_param_names();
  ASSERT_GE(names.size(), 32u);
  kop::core::StackConfig cfg;
  cfg.machine = "phi";
  cfg.num_threads = 2;
  for (const PathKind path : {PathKind::kLinuxOmp, PathKind::kRtk}) {
    cfg.path = path;
    auto stack = kop::core::Stack::create(cfg);
    const std::string prefix = stack->os().costs().personality + ".";
    for (const auto& name : names) {
      EXPECT_EQ(kop::harness::jobs::apply_point_scales(*stack, {{name, 1.5}}),
                name.compare(0, prefix.size(), prefix) == 0)
          << name << " on " << prefix;
    }
    EXPECT_THROW(kop::harness::jobs::apply_point_scales(
                     *stack, {{prefix + "not_a_field", 2.0}}),
                 std::invalid_argument);
    EXPECT_THROW(kop::harness::jobs::apply_point_scales(
                     *stack, {{prefix + "syscall_ns", 0.0}}),
                 std::invalid_argument);
  }
}

// --- runner ----------------------------------------------------------

TEST(JobRunner, ParallelResultsMatchSerialInInputOrder) {
  std::vector<PointSpec> points;
  for (int t : {1, 2, 4}) {
    points.push_back(tiny_nas_point(PathKind::kLinuxOmp, t));
    points.push_back(tiny_nas_point(PathKind::kRtk, t));
  }
  // Duplicate of points[0]: dedup must fan the same result back out.
  points.push_back(tiny_nas_point(PathKind::kLinuxOmp, 1));

  JobOptions serial;
  serial.jobs = 1;
  JobOptions parallel;
  parallel.jobs = 4;

  JobRunner r1(serial);
  const auto a = r1.run(points);
  JobRunner r4(parallel);
  const auto b = r4.run(points);

  ASSERT_EQ(a.size(), points.size());
  ASSERT_EQ(b.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_FALSE(a[i].failed);
    EXPECT_FALSE(b[i].failed);
    EXPECT_EQ(a[i].metrics.timed_seconds, b[i].metrics.timed_seconds) << i;
    EXPECT_EQ(a[i].metrics.counters.totals, b[i].metrics.counters.totals) << i;
  }
  EXPECT_EQ(a.back().metrics.timed_seconds, a.front().metrics.timed_seconds);
  // The duplicate was not simulated twice.
  EXPECT_EQ(r4.stats().executed, points.size() - 1);
}

TEST(JobRunner, WarmCacheSkipsSimulation) {
  const std::string dir = scratch_dir("warm");
  std::vector<PointSpec> points;
  for (int t : {1, 2, 4}) points.push_back(tiny_nas_point(PathKind::kRtk, t));

  JobOptions opts;
  opts.jobs = 2;
  opts.cache_dir = dir;
  JobRunner cold(opts);
  const auto a = cold.run(points);
  EXPECT_EQ(cold.stats().executed, points.size());
  EXPECT_EQ(cold.stats().cache_hits, 0u);

  JobRunner warm(opts);
  const auto b = warm.run(points);
  EXPECT_EQ(warm.stats().executed, 0u);
  EXPECT_EQ(warm.stats().cache_hits, points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(b[i].from_cache);
    EXPECT_EQ(a[i].metrics.timed_seconds, b[i].metrics.timed_seconds);
  }

  // --no-cache bypasses the warm entries.
  opts.no_cache = true;
  JobRunner bypass(opts);
  bypass.run(points);
  EXPECT_EQ(bypass.stats().executed, points.size());
  fs::remove_all(dir);
}

TEST(JobRunner, FailureIsCapturedRetriedAndReported) {
  // EPCC on a CCK path throws (no OpenMP directives to measure, §6.1):
  // a deterministic failure the runner must capture, not propagate.
  std::vector<PointSpec> points = {tiny_nas_point(),
                                   tiny_epcc_point(PathKind::kAutoMpLinux)};
  JobRunner runner;
  const auto results = runner.run(points);
  EXPECT_FALSE(results[0].failed);
  ASSERT_TRUE(results[1].failed);
  EXPECT_NE(results[1].error.find(points[1].label()), std::string::npos);
  EXPECT_EQ(runner.stats().failures, 1u);
  EXPECT_EQ(runner.stats().retries, 1u);
  EXPECT_THROW(kop::harness::jobs::require_ok(points, results),
               std::runtime_error);
}

TEST(JobRunner, RunTasksExecutesEveryTask) {
  std::vector<int> hits(17, 0);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] { hits[i] = static_cast<int>(i) + 1; });
  }
  JobOptions opts;
  opts.jobs = 4;
  JobRunner runner(opts);
  runner.run_tasks(tasks);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], static_cast<int>(i) + 1);
  }
}

// --- cross-engine thread-safety smoke (TSan CI job) ------------------

TEST(ThreadSafety, ConcurrentRunNasIntoSharedSink) {
  // Four host threads, each booting its own stack, all recording into
  // one MetricsSink.  Under -fsanitize=thread this validates the fiber
  // annotations and the sink mutex; in a plain build it still checks
  // that results are independent of host-thread interleaving.
  const PointSpec spec = tiny_nas_point(PathKind::kPik, 2);
  const double expected =
      kop::harness::jobs::run_point(spec).metrics.timed_seconds;

  MetricsSink sink("jobs_test");
  std::vector<std::thread> threads;
  std::vector<double> timed(4, 0.0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      RunMetrics m;
      kop::harness::run_nas(spec.stack_config(), spec.nas, &m);
      timed[static_cast<std::size_t>(t)] = m.timed_seconds;
      sink.add(std::move(m));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sink.size(), 4u);
  for (double v : timed) EXPECT_EQ(v, expected);
}

}  // namespace

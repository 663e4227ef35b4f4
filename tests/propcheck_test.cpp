// Property-harness tests: the seeded case generator is deterministic
// and round-trips through replay tokens, check_case holds (and its
// digest is stable) on healthy cases, an impossible case produces a
// run-completes violation that the shrinker reduces to a minimal
// still-failing spec, and shrunk tokens replay through the schedfuzz
// regression list.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "harness/jobs/cache.hpp"
#include "harness/propcheck/propcheck.hpp"
#include "harness/schedfuzz.hpp"

namespace {

namespace fs = std::filesystem;
using kop::core::PathKind;
using kop::harness::EpccPart;
namespace jobs = kop::harness::jobs;
namespace propcheck = kop::harness::propcheck;
namespace schedfuzz = kop::harness::schedfuzz;

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("kop_propcheck_test_" + std::to_string(getpid()) +
                        "_" + name);
  fs::remove_all(dir);
  return dir.string();
}

// The cheapest healthy case: defaults are a tiny EP run on linux-omp.
propcheck::CaseParams tiny_case() { return propcheck::CaseParams{}; }

// EPCC parts need OpenMP directives; the AutoMP paths have none, so
// run_epcc throws.  parse() refuses to build this combination, which
// makes it the canonical hand-constructed "run-completes" failure.
propcheck::CaseParams impossible_case() {
  propcheck::CaseParams p;
  p.kind = jobs::PointSpec::Kind::kEpcc;
  p.path = PathKind::kAutoMpLinux;
  p.threads = 4;
  p.part = EpccPart::kTask;
  p.policy = kop::sim::SchedPolicy::kPct;
  p.sched_seed = 9;
  return p;
}

// --- generator -------------------------------------------------------

TEST(Generator, SameSeedSameCases) {
  propcheck::GenOptions opt;
  opt.seed = 5;
  opt.count = 40;
  const auto a = propcheck::generate(opt);
  const auto b = propcheck::generate(opt);
  ASSERT_EQ(a.size(), 40u);
  ASSERT_EQ(b.size(), 40u);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].token(), b[i].token()) << i;

  opt.seed = 6;
  const auto c = propcheck::generate(opt);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    any_differs = any_differs || a[i].token() != c[i].token();
  EXPECT_TRUE(any_differs) << "seed does not influence generation";
}

TEST(Generator, CasesAreValidDiverseAndTokenizable) {
  propcheck::GenOptions opt;
  opt.seed = 12;
  opt.count = 120;
  const auto cases = propcheck::generate(opt);
  std::set<std::string> machines, paths, policies, kinds;
  for (const auto& c : cases) {
    // Tokens are space-free (the schedfuzz regression format is
    // space-tokenized) and round-trip exactly.
    const std::string tok = c.token();
    EXPECT_EQ(tok.find(' '), std::string::npos) << tok;
    propcheck::CaseParams back;
    ASSERT_TRUE(propcheck::CaseParams::parse(tok, &back)) << tok;
    EXPECT_EQ(back.token(), tok);
    // Generated combinations are runnable: EPCC never lands on AutoMP.
    if (c.kind == jobs::PointSpec::Kind::kEpcc) {
      EXPECT_NE(c.path, PathKind::kAutoMpLinux) << tok;
      EXPECT_NE(c.path, PathKind::kAutoMpNautilus) << tok;
    }
    machines.insert(c.machine);
    paths.insert(kop::core::path_name(c.path));
    policies.insert(kop::sim::sched_policy_name(c.policy));
    kinds.insert(c.kind == jobs::PointSpec::Kind::kNas ? "nas" : "epcc");
  }
  // The sweep actually explores the space (machines x paths x
  // schedulers x workload families).
  EXPECT_EQ(machines.size(), 2u);
  EXPECT_GE(paths.size(), 4u);
  EXPECT_EQ(policies.size(), 3u);
  EXPECT_EQ(kinds.size(), 2u);
}

TEST(Token, RejectsMalformedInput) {
  propcheck::CaseParams p;
  for (const char* bad : {
           "",                        // empty
           "v1;nas",                  // no key=value fields
           "v2;nas;thr=2",            // unknown version
           "v1;quux;thr=2",           // unknown family
           "v1;nas;thr=0",            // out-of-range team
           "v1;nas;bench=ZZ",         // unknown benchmark
           "v1;nas;wat=1",            // unknown key
           "v1;nas;thr",              // missing '='
           "v1;nas;pol=lifo",         // unknown policy
           "v1;epcc;path=linux-automp;part=sync",  // EPCC on a CCK path
           "v1;nas;cs=linux.syscall_ns",        // scale missing
           "v1;nas;cs=plan9.syscall_ns:2.000",  // unknown personality
           "v1;nas;cs=linux.not_a_field:2.000", // unknown field
           "v1;nas;cs=linux.syscall_ns:0.000",  // non-positive scale
           "v1;nas;cs=linux.syscall_ns:2.000,", // trailing empty entry
       }) {
    EXPECT_FALSE(propcheck::CaseParams::parse(bad, &p)) << bad;
  }
}

TEST(Token, CostScalesRoundTripExactly) {
  propcheck::CaseParams p;
  p.path = PathKind::kRtk;
  p.cost_scales.push_back({"nautilus.syscall_ns", 4.0});
  p.cost_scales.push_back({"nautilus.wake_latency_ns", 0.25});
  const std::string tok = p.token();
  EXPECT_NE(tok.find(";cs=nautilus.syscall_ns:4.000,"), std::string::npos)
      << tok;
  propcheck::CaseParams back;
  ASSERT_TRUE(propcheck::CaseParams::parse(tok, &back)) << tok;
  ASSERT_EQ(back.cost_scales.size(), 2u);
  EXPECT_EQ(back.cost_scales[0].key, "nautilus.syscall_ns");
  EXPECT_EQ(back.cost_scales[0].scale, 4.0);  // palette decimals: exact
  EXPECT_EQ(back.cost_scales[1].key, "nautilus.wake_latency_ns");
  EXPECT_EQ(back.cost_scales[1].scale, 0.25);
  EXPECT_EQ(back.token(), tok);
  // The scales reach the materialized point (and thus its cache key).
  const jobs::PointSpec spec = back.point();
  ASSERT_EQ(spec.cost_scales.size(), 2u);
  propcheck::CaseParams bare = p;
  bare.cost_scales.clear();
  EXPECT_NE(spec.content_hash(), bare.point().content_hash());
}

TEST(Generator, DrawsCostScalesMatchedToThePath) {
  propcheck::GenOptions opt;
  opt.seed = 9;
  opt.count = 160;
  const auto cases = propcheck::generate(opt);
  int with_scales = 0;
  for (const auto& c : cases) {
    if (c.cost_scales.empty()) continue;
    ++with_scales;
    // The personality must match the booted path's cost sheet, or the
    // drawn scale would be skipped at boot and test nothing.
    std::string want = "linux.";
    if (c.path == PathKind::kRtk || c.path == PathKind::kAutoMpNautilus)
      want = "nautilus.";
    else if (c.path == PathKind::kPik)
      want = "pik.";
    for (const auto& cs : c.cost_scales) {
      EXPECT_EQ(cs.key.compare(0, want.size(), want), 0)
          << cs.key << " on " << kop::core::path_name(c.path);
      EXPECT_GT(cs.scale, 0.0);
      // Palette values round-trip %.3f exactly.
      propcheck::CaseParams back;
      ASSERT_TRUE(propcheck::CaseParams::parse(c.token(), &back));
      EXPECT_EQ(back.token(), c.token());
    }
  }
  // Roughly a quarter of cases should carry a cost scale.
  EXPECT_GT(with_scales, opt.count / 10);
  EXPECT_LT(with_scales, opt.count / 2);
}

TEST(Token, NumaSchedRoundTripsAndStaysOffHistoricalTokens) {
  // ns=hier is append-only: the flat default emits no ns field at all,
  // so every token minted before the knob existed parses (and
  // re-serializes) byte-identically.
  propcheck::CaseParams p;
  EXPECT_EQ(p.token().find(";ns="), std::string::npos) << p.token();
  p.numa_sched_hier = true;
  const std::string tok = p.token();
  EXPECT_NE(tok.find(";ns=hier"), std::string::npos) << tok;
  propcheck::CaseParams back;
  ASSERT_TRUE(propcheck::CaseParams::parse(tok, &back)) << tok;
  EXPECT_TRUE(back.numa_sched_hier);
  EXPECT_EQ(back.token(), tok);
  // Explicit flat parses too (and normalizes back to the bare token).
  propcheck::CaseParams flat;
  ASSERT_TRUE(propcheck::CaseParams::parse("v1;nas;thr=2;ns=flat", &flat));
  EXPECT_FALSE(flat.numa_sched_hier);
  EXPECT_EQ(flat.token().find(";ns="), std::string::npos);
  // Garbage is rejected like any other malformed field.
  propcheck::CaseParams bad;
  EXPECT_FALSE(propcheck::CaseParams::parse("v1;nas;ns=diagonal", &bad));
  // The knob reaches the materialized point's cache identity.
  propcheck::CaseParams hier;
  hier.numa_sched_hier = true;
  EXPECT_NE(hier.point().canonical(), propcheck::CaseParams{}.point().canonical());
}

TEST(Token, ParseAppliesDefaultsForOmittedKeys) {
  propcheck::CaseParams p;
  ASSERT_TRUE(propcheck::CaseParams::parse("v1;nas;thr=3", &p));
  EXPECT_EQ(p.threads, 3);
  EXPECT_EQ(p.machine, "phi");
  EXPECT_EQ(p.path, PathKind::kLinuxOmp);
  EXPECT_EQ(p.bench, "EP");
  EXPECT_EQ(p.policy, kop::sim::SchedPolicy::kFifo);
}

// --- invariant registry ----------------------------------------------

TEST(Invariants, RegistryIsPopulated) {
  const auto names = propcheck::invariant_names();
  const std::set<std::string> have(names.begin(), names.end());
  for (const char* expected :
       {"run-completes", "time-monotonic", "work-conservation",
        "task-balance", "steal-accounting", "counter-conservation",
        "determinism", "cache-roundtrip", "exactly-once-dispatch",
        "journal-replay"}) {
    EXPECT_TRUE(have.count(expected)) << expected;
  }
}

TEST(Invariants, HealthyCaseWithCostScalesPasses) {
  // A per-point cost scale must not upset determinism or the cache
  // roundtrip (the scale is in the key).
  const std::string dir = scratch_dir("scaled");
  propcheck::CaseParams p = tiny_case();
  p.cost_scales.push_back({"linux.syscall_ns", 4.0});
  propcheck::CheckOptions opt;
  opt.scratch_dir = dir;
  const auto outcome = propcheck::check_case(p, opt);
  for (const auto& v : outcome.violations)
    ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
  // The scale must actually change the run, or this test is vacuous.
  const auto bare = propcheck::check_case(tiny_case(), opt);
  EXPECT_NE(outcome.digest, bare.digest);
  fs::remove_all(dir);
}

TEST(Invariants, HealthyCasePassesWithStableDigest) {
  const std::string dir = scratch_dir("healthy");
  propcheck::CheckOptions opt;
  opt.scratch_dir = dir;
  const auto a = propcheck::check_case(tiny_case(), opt);
  const auto b = propcheck::check_case(tiny_case(), opt);
  for (const auto& v : a.violations)
    ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_NE(a.digest, 0u);
  EXPECT_EQ(a.digest, b.digest);
  fs::remove_all(dir);
}

TEST(Invariants, DigestSeparatesSchedulesAndWorkloads) {
  // Filesystem-free check (empty scratch skips cache-roundtrip only).
  // A single-thread case has no scheduling freedom, so the schedule
  // comparison needs a real team.
  const propcheck::CheckOptions opt;
  propcheck::CaseParams wide = tiny_case();
  wide.threads = 4;
  propcheck::CaseParams perturbed = wide;
  perturbed.policy = kop::sim::SchedPolicy::kRandom;
  perturbed.sched_seed = 3;
  const auto base = propcheck::check_case(tiny_case(), opt);
  const auto w = propcheck::check_case(wide, opt);
  const auto r = propcheck::check_case(perturbed, opt);
  EXPECT_TRUE(w.ok());
  EXPECT_TRUE(r.ok());
  // Another workload or interleaving is another observable behavior.
  EXPECT_NE(base.digest, w.digest);
  EXPECT_NE(w.digest, r.digest);
}

TEST(Invariants, ImpossibleCaseFailsRunCompletes) {
  const auto outcome =
      propcheck::check_case(impossible_case(), propcheck::CheckOptions{});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.violations.front().invariant, "run-completes");
}

// --- shrinker --------------------------------------------------------

TEST(Shrink, ReducesToMinimalStillFailingCase) {
  const auto failing = impossible_case();
  propcheck::CaseOutcome final_outcome;
  const auto minimal =
      propcheck::shrink(failing, propcheck::CheckOptions{}, &final_outcome);

  // Still failing, for the same reason.
  ASSERT_FALSE(final_outcome.ok());
  EXPECT_EQ(final_outcome.violations.front().invariant, "run-completes");
  // The failure needs kEpcc + an AutoMP path; the shrinker must keep
  // both while simplifying everything irrelevant to it.
  EXPECT_EQ(minimal.kind, jobs::PointSpec::Kind::kEpcc);
  EXPECT_TRUE(minimal.path == PathKind::kAutoMpLinux ||
              minimal.path == PathKind::kAutoMpNautilus);
  EXPECT_EQ(minimal.threads, 1);
  EXPECT_EQ(minimal.policy, kop::sim::SchedPolicy::kFifo);
  EXPECT_EQ(minimal.sched_seed, 0u);
}

TEST(Shrink, DropsAnInertCostScaleSuffix) {
  // The failure is the EPCC-on-AutoMP combination; the cost scales are
  // irrelevant to it, so the shrinker must discard them.
  propcheck::CaseParams p = impossible_case();
  p.cost_scales.push_back({"linux.syscall_ns", 2.0});
  p.cost_scales.push_back({"linux.tick_cost_ns", 0.5});
  propcheck::CaseOutcome final_outcome;
  const auto minimal =
      propcheck::shrink(p, propcheck::CheckOptions{}, &final_outcome);
  ASSERT_FALSE(final_outcome.ok());
  EXPECT_TRUE(minimal.cost_scales.empty()) << minimal.token();
}

TEST(Shrink, PassingCaseComesBackUnchanged) {
  const auto healthy = tiny_case();
  propcheck::CaseOutcome outcome;
  const auto back =
      propcheck::shrink(healthy, propcheck::CheckOptions{}, &outcome);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(back.token(), healthy.token());
}

// --- suite driver ----------------------------------------------------

TEST(Suite, PinnedSeedReproducesTheSuiteDigest) {
  const std::string dir = scratch_dir("suite");
  propcheck::SuiteOptions opt;
  opt.gen.seed = 11;
  opt.gen.count = 6;
  opt.check.scratch_dir = dir;
  const auto a = propcheck::run_suite(opt);
  const auto b = propcheck::run_suite(opt);
  EXPECT_TRUE(a.ok()) << a.summary();
  EXPECT_EQ(a.cases, 6);
  EXPECT_NE(a.suite_digest, 0u);
  EXPECT_EQ(a.suite_digest, b.suite_digest);

  opt.gen.seed = 12;
  const auto c = propcheck::run_suite(opt);
  EXPECT_NE(a.suite_digest, c.suite_digest);
  fs::remove_all(dir);
}

// --- schedfuzz regression-list integration ---------------------------

TEST(Replay, PinnedTokenRunsThroughRegressionList) {
  const std::string dir = scratch_dir("replay");
  fs::create_directories(dir);
  const std::string path = dir + "/regressions.txt";
  {
    std::ofstream out(path);
    out << "# pinned propcheck shrink results\n";
    out << "propcheck:" << tiny_case().token() << " fifo 0\n";
    out << "propcheck:" << tiny_case().token() << " pct 7\n";
  }
  const auto report =
      schedfuzz::replay_regressions(schedfuzz::core_scenarios(), path);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.runs, 2);
  fs::remove_all(dir);
}

TEST(Replay, RegressionLineScheduleOverridesTheToken) {
  // The token says fifo/0 but the line's columns are authoritative --
  // a failing schedule pin must not be weakened by the token text.
  const auto scenario = propcheck::scenario_from_token(tiny_case().token());
  schedfuzz::FuzzConfig cfg;
  cfg.sched.policy = kop::sim::SchedPolicy::kRandom;
  cfg.sched.seed = 123;
  cfg.racecheck = false;
  const auto outcome = scenario.run(cfg);
  EXPECT_TRUE(outcome.wrong.empty()) << outcome.wrong;
}

TEST(Replay, UnparseableTokenFailsLoudly) {
  const auto scenario = propcheck::scenario_from_token("v1;nas;wat=1");
  schedfuzz::FuzzConfig cfg;
  const auto outcome = scenario.run(cfg);
  EXPECT_NE(outcome.wrong.find("unparseable"), std::string::npos)
      << outcome.wrong;
}

}  // namespace

// Property-based invariant testing over random experiment points.
//
// The figure pipelines pin *specific* goldens; propcheck instead draws
// random PointSpecs -- machines x workloads x paths x schedulers x team
// sizes -- from a seeded generator and asserts machine-checkable
// invariants on every one (ek-kor2-style test pyramid, SNIPPETS.md):
//
//   time-monotonic       virtual time never runs backwards across the
//                        run's observed event stream (the event queue's
//                        (at, key, seq) order, near and far events alike)
//   work-conservation    every iteration of every dispatching
//                        worksharing construct executes exactly once
//                        (chunk intervals disjoint + exact coverage)
//   determinism          the same (point, policy, seed) replayed with
//                        the race detector attached (every wake through
//                        the event queue, no sleep_for run-ahead)
//                        produces identical engine dispatch digests,
//                        OMPT trace digests, and metrics
//   task-balance         tasks created == scheduled begin == end;
//                        runtime-task submits == executes (komp,
//                        VIRGIL, and the Nautilus task system)
//   steal-accounting     OMPT-observed steals == the telemetry
//                        kTaskSteals total
//   counter-conservation per-CPU counter attributions never exceed
//                        their totals (telemetry::check_conservation)
//   cache-roundtrip      store -> load -> merge -> load returns the
//                        byte-identical entry document
//   exactly-once-dispatch  a full coordinator-arbitrated sweep under a
//                        case-derived random schedule of worker crashes
//                        and stalls past the dead window (reclaimed
//                        leases, re-grants, stale DONEs) drains with
//                        exactly one accepted completion per point
//                        (src/coord, driven clocklessly)
//   journal-replay       a journaled coordinator whose heartbeating
//                        workers stall and are declared dead at random,
//                        killed at a random committed moment, replays
//                        its journal into the restart table: every
//                        registered point, the completed ones complete,
//                        the rest queued in registration order, no
//                        leases; torn tails are tolerated, checksum
//                        corruption is rejected (needs scratch_dir,
//                        like cache-roundtrip)
//
// A failing case is shrunk to a minimal failing CaseParams; its token
// is a single space-free string that replays from the CLI
// (examples/propcheck --replay <token>) and pins as a schedfuzz
// regression line ("propcheck:<token> <policy> <seed>").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/jobs/point.hpp"
#include "harness/schedfuzz.hpp"
#include "sim/engine.hpp"

namespace kop::harness::propcheck {

/// One generated test case: a PointSpec plus the engine schedule the
/// point runs under (PointSpec itself is schedule-agnostic -- the cache
/// keys on workload identity, not interleaving).
struct CaseParams {
  jobs::PointSpec::Kind kind = jobs::PointSpec::Kind::kNas;
  std::string machine = "phi";  // "phi" | "8xeon"
  core::PathKind path = core::PathKind::kLinuxOmp;
  int threads = 1;
  int first_touch = -1;  // PointSpec convention: -1 auto, 0 off, 1 on
  bool rtk_use_pte = false;
  std::uint64_t point_seed = 42;  // cost-model RNG seed
  /// Hierarchical NUMA stealing (KOMP_NUMA_SCHED=hier) on komp paths.
  bool numa_sched_hier = false;

  // kNas: workload = by_name(bench), scaled.
  std::string bench = "EP";
  int timesteps = 1;
  double scale = 0.05;  // scale_suite work factor

  // kEpcc: suite part + the knobs that dominate its runtime.
  EpccPart part = EpccPart::kSync;
  int reps = 2;
  int inner = 4;
  int tasks_per_thread = 4;
  int tree_depth = 2;

  // Per-point cost scales (hw::apply_cost_scale), bound right after
  // boot exactly as a sweep's run_point binds them.  The generator
  // draws scales from an exact-decimal palette with the personality
  // matched to the case's path, so tokens round-trip the drawn values
  // bit-for-bit.
  std::vector<jobs::PointSpec::CostScale> cost_scales;

  // Engine ready-queue schedule.
  sim::SchedPolicy policy = sim::SchedPolicy::kFifo;
  std::uint64_t sched_seed = 0;

  /// Materialize the PointSpec this case runs.
  jobs::PointSpec point() const;
  /// The point's StackConfig with the schedule applied.
  core::StackConfig stack_config() const;
  /// Space-free replay token ("v1;nas;bench=EP;...").  Round-trips
  /// through parse() exactly; safe in the space-tokenized schedfuzz
  /// regression format.
  std::string token() const;
  /// Parse a token; returns false (leaving *out untouched) on any
  /// malformed input.
  static bool parse(const std::string& token, CaseParams* out);
  /// Short human description for reports.
  std::string describe() const;
};

/// Deterministic case generator: same (seed, count) => same cases, on
/// any host.  Draws are constrained to valid combinations (EPCC only on
/// libomp paths, AutoMP only on CCK-convertible benchmarks) and sized
/// for sub-second simulation per case.
struct GenOptions {
  std::uint64_t seed = 1;
  int count = 200;
};
std::vector<CaseParams> generate(const GenOptions& opt);

/// One invariant violation (invariant registry name + evidence).
struct Violation {
  std::string invariant;
  std::string detail;
};

struct CheckOptions {
  /// Scratch directory for the cache-roundtrip and journal-replay
  /// invariants.  Each checked case uses fresh subdirectories.  Empty
  /// disables both (the others never touch the filesystem).
  std::string scratch_dir;
};

/// Outcome of checking every invariant against one case.
struct CaseOutcome {
  CaseParams params;
  std::vector<Violation> violations;
  /// Digest of the first run's observable behavior (engine dispatch
  /// digest + OMPT trace digest + metrics bytes): the value the
  /// determinism acceptance criterion folds across the suite.
  std::uint64_t digest = 0;
  bool ok() const { return violations.empty(); }
};

/// Names of every registered invariant, in evaluation order.
std::vector<std::string> invariant_names();

/// Run one case under the full invariant registry (simulates the point
/// twice for the determinism check).  Exceptions from the simulation
/// itself are converted into a "run-completes" violation.
CaseOutcome check_case(const CaseParams& params, const CheckOptions& opt);

/// Greedy shrink: repeatedly applies simplifying transformations
/// (fewer threads, smaller workload, simpler machine/policy/seed) while
/// the case keeps failing.  Returns the minimal still-failing case; the
/// result of check_case on it is in *final if non-null.
CaseParams shrink(const CaseParams& failing, const CheckOptions& opt,
                  CaseOutcome* final = nullptr, int max_checks = 48);

/// --- Suite driver (what examples/propcheck and the test run) ---------

struct SuiteOptions {
  GenOptions gen;
  CheckOptions check;
  /// Stop after this many failing cases (each is shrunk; shrinking is
  /// the expensive part).
  int max_failures = 3;
};

struct SuiteReport {
  int cases = 0;
  /// FNV-1a fold of every case digest, in generation order: the suite's
  /// whole observable behavior as one number.  Pinned-seed CI runs
  /// compare it across invocations.
  std::uint64_t suite_digest = 0;
  /// Failing cases, already shrunk to minimal form.
  std::vector<CaseOutcome> failures;
  bool ok() const { return failures.empty(); }
  std::string summary() const;
};

SuiteReport run_suite(const SuiteOptions& opt);

/// Wrap a replay token as a schedfuzz scenario named
/// "propcheck:<token>".  The scenario runs the full invariant registry
/// on the case with the *caller's* FuzzConfig schedule (the regression
/// line's policy/seed columns override the token's own), reporting any
/// violation as a wrong-answer outcome.  Used by
/// schedfuzz::replay_regressions to honor pinned propcheck shrink
/// results.
schedfuzz::Scenario scenario_from_token(const std::string& token);

}  // namespace kop::harness::propcheck

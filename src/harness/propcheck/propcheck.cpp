#include "harness/propcheck/propcheck.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "harness/figures.hpp"
#include "hw/cost_params.hpp"
#include "nas/specs.hpp"
#include "sim/rng.hpp"

namespace kop::harness::propcheck {

namespace {

const char* part_token(EpccPart p) {
  switch (p) {
    case EpccPart::kSync:  return "sync";
    case EpccPart::kSched: return "sched";
    case EpccPart::kArray: return "array";
    case EpccPart::kTask:  return "task";
    case EpccPart::kAll:   return "all";
  }
  return "?";
}

bool parse_part(const std::string& s, EpccPart* out) {
  if (s == "sync") *out = EpccPart::kSync;
  else if (s == "sched") *out = EpccPart::kSched;
  else if (s == "array") *out = EpccPart::kArray;
  else if (s == "task") *out = EpccPart::kTask;
  else if (s == "all") *out = EpccPart::kAll;
  else return false;
  return true;
}

bool parse_path(const std::string& s, core::PathKind* out) {
  for (core::PathKind p :
       {core::PathKind::kLinuxOmp, core::PathKind::kRtk, core::PathKind::kPik,
        core::PathKind::kAutoMpLinux, core::PathKind::kAutoMpNautilus}) {
    if (s == core::path_name(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

bool parse_policy(const std::string& s, sim::SchedPolicy* out) {
  for (sim::SchedPolicy p : {sim::SchedPolicy::kFifo, sim::SchedPolicy::kRandom,
                             sim::SchedPolicy::kPct}) {
    if (s == sim::sched_policy_name(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

std::string fmt_scale(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// strtoll/strtod wrappers that reject trailing garbage and throw-free.
bool to_i64(const std::string& s, long long* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool to_f64(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

// "pers.field:scale" -- one entry of the cs= token field.  Scales come
// from the exact-decimal generator palette, so %.3f round-trips them.
bool parse_cost_scale(const std::string& s, jobs::PointSpec::CostScale* out) {
  const std::size_t colon = s.rfind(':');
  const std::size_t dot = s.find('.');
  if (colon == std::string::npos || dot == std::string::npos || dot > colon)
    return false;
  const std::string pers = s.substr(0, dot);
  if (pers != "linux" && pers != "nautilus" && pers != "pik") return false;
  if (!hw::is_cost_field(s.substr(dot + 1, colon - dot - 1))) return false;
  double scale = 0.0;
  if (!to_f64(s.substr(colon + 1), &scale) || !(scale > 0.0) || scale > 16.0)
    return false;
  out->key = s.substr(0, colon);
  out->scale = scale;
  return true;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

}  // namespace

jobs::PointSpec CaseParams::point() const {
  jobs::PointSpec p;
  p.kind = kind;
  p.machine = machine;
  p.path = path;
  p.threads = threads;
  p.first_touch = first_touch;
  p.rtk_use_pte = rtk_use_pte;
  p.seed = point_seed;
  if (kind == jobs::PointSpec::Kind::kNas) {
    auto scaled = scale_suite({nas::by_name(bench)}, scale, timesteps);
    p.nas = std::move(scaled[0]);
  } else {
    p.epcc_part = part;
    p.epcc.outer_reps = reps;
    p.epcc.inner_iters = inner;
    p.epcc.sched_iters_per_thread = 8;
    p.epcc.array_sizes = {2187};
    p.epcc.tasks_per_thread = tasks_per_thread;
    p.epcc.tree_depth = tree_depth;
  }
  p.numa_sched_hier = numa_sched_hier;
  p.cost_scales = cost_scales;
  return p;
}

core::StackConfig CaseParams::stack_config() const {
  core::StackConfig cfg = point().stack_config();
  cfg.sched.policy = policy;
  cfg.sched.seed = sched_seed;
  return cfg;
}

std::string CaseParams::token() const {
  std::ostringstream t;
  t << "v1;" << (kind == jobs::PointSpec::Kind::kNas ? "nas" : "epcc")
    << ";m=" << machine << ";path=" << core::path_name(path)
    << ";thr=" << threads << ";ft=" << first_touch
    << ";pte=" << (rtk_use_pte ? 1 : 0) << ";seed=" << point_seed
    << ";pol=" << sim::sched_policy_name(policy) << ";ss=" << sched_seed;
  if (kind == jobs::PointSpec::Kind::kNas) {
    t << ";bench=" << bench << ";ts=" << timesteps
      << ";sc=" << fmt_scale(scale);
  } else {
    t << ";part=" << part_token(part) << ";reps=" << reps
      << ";inner=" << inner << ";tasks=" << tasks_per_thread
      << ";depth=" << tree_depth;
  }
  // Emitted only when hier, so flat tokens keep their historical bytes
  // (pinned regression lines stay replayable byte-for-byte).
  if (numa_sched_hier) t << ";ns=hier";
  if (!cost_scales.empty()) {
    // ',' separates entries inside the one cs= field (';' separates
    // fields); old tokens simply have no cs= field.
    t << ";cs=";
    for (std::size_t i = 0; i < cost_scales.size(); ++i) {
      if (i > 0) t << ',';
      t << cost_scales[i].key << ':' << fmt_scale(cost_scales[i].scale);
    }
  }
  return t.str();
}

bool CaseParams::parse(const std::string& token, CaseParams* out) {
  const std::vector<std::string> fields = split(token, ';');
  if (fields.size() < 3 || fields[0] != "v1") return false;
  CaseParams p;
  if (fields[1] == "nas") {
    p.kind = jobs::PointSpec::Kind::kNas;
  } else if (fields[1] == "epcc") {
    p.kind = jobs::PointSpec::Kind::kEpcc;
  } else {
    return false;
  }
  for (std::size_t i = 2; i < fields.size(); ++i) {
    const std::string& f = fields[i];
    const std::size_t eq = f.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = f.substr(0, eq);
    const std::string val = f.substr(eq + 1);
    long long n = 0;
    if (key == "m") {
      if (val != "phi" && val != "8xeon") return false;
      p.machine = val;
    } else if (key == "path") {
      if (!parse_path(val, &p.path)) return false;
    } else if (key == "thr") {
      if (!to_i64(val, &n) || n < 1 || n > 1024) return false;
      p.threads = static_cast<int>(n);
    } else if (key == "ft") {
      if (!to_i64(val, &n) || n < -1 || n > 1) return false;
      p.first_touch = static_cast<int>(n);
    } else if (key == "pte") {
      if (!to_i64(val, &n) || (n != 0 && n != 1)) return false;
      p.rtk_use_pte = n == 1;
    } else if (key == "seed") {
      if (!to_i64(val, &n) || n < 0) return false;
      p.point_seed = static_cast<std::uint64_t>(n);
    } else if (key == "pol") {
      if (!parse_policy(val, &p.policy)) return false;
    } else if (key == "ss") {
      if (!to_i64(val, &n) || n < 0) return false;
      p.sched_seed = static_cast<std::uint64_t>(n);
    } else if (key == "bench") {
      try {
        nas::by_name(val);
      } catch (const std::exception&) {
        return false;
      }
      p.bench = val;
    } else if (key == "ts") {
      if (!to_i64(val, &n) || n < 1 || n > 64) return false;
      p.timesteps = static_cast<int>(n);
    } else if (key == "sc") {
      double d = 0.0;
      if (!to_f64(val, &d) || !(d > 0.0) || d > 16.0) return false;
      p.scale = d;
    } else if (key == "part") {
      if (!parse_part(val, &p.part)) return false;
    } else if (key == "reps") {
      if (!to_i64(val, &n) || n < 1 || n > 64) return false;
      p.reps = static_cast<int>(n);
    } else if (key == "inner") {
      if (!to_i64(val, &n) || n < 1 || n > 256) return false;
      p.inner = static_cast<int>(n);
    } else if (key == "tasks") {
      if (!to_i64(val, &n) || n < 1 || n > 256) return false;
      p.tasks_per_thread = static_cast<int>(n);
    } else if (key == "depth") {
      if (!to_i64(val, &n) || n < 1 || n > 16) return false;
      p.tree_depth = static_cast<int>(n);
    } else if (key == "ns") {
      if (val == "hier") p.numa_sched_hier = true;
      else if (val == "flat") p.numa_sched_hier = false;
      else return false;
    } else if (key == "cs") {
      p.cost_scales.clear();
      for (const std::string& entry : split(val, ',')) {
        jobs::PointSpec::CostScale cs;
        if (!parse_cost_scale(entry, &cs)) return false;
        p.cost_scales.push_back(std::move(cs));
      }
    } else {
      return false;  // unknown key: a typo must not silently pass
    }
  }
  // EPCC cannot run on CCK paths; reject rather than blow up later.
  if (p.kind == jobs::PointSpec::Kind::kEpcc &&
      (p.path == core::PathKind::kAutoMpLinux ||
       p.path == core::PathKind::kAutoMpNautilus)) {
    return false;
  }
  *out = p;
  return true;
}

std::string CaseParams::describe() const {
  std::string out = point().label();
  out += " [";
  out += sim::sched_policy_name(policy);
  if (policy != sim::SchedPolicy::kFifo)
    out += " ss=" + std::to_string(sched_seed);
  for (const auto& cs : cost_scales)
    out += " " + cs.key + "x" + fmt_scale(cs.scale);
  out += "]";
  return out;
}

std::vector<CaseParams> generate(const GenOptions& opt) {
  sim::Rng rng(opt.seed ^ 0x70726f70636865ULL);  // decorrelate from sim seeds
  std::vector<CaseParams> cases;
  cases.reserve(static_cast<std::size_t>(opt.count));

  // CCK-convertible NAS benchmarks (cck_suite elides IS: AutoMP extracts
  // no parallelism from it, §6.2).
  const std::vector<std::string> all_benches = {"BT", "SP", "LU", "FT",
                                                "EP", "CG", "MG", "IS"};
  const std::vector<std::string> cck_benches = {"BT", "SP", "LU", "FT",
                                                "EP", "CG", "MG"};
  const std::vector<core::PathKind> omp_paths = {
      core::PathKind::kLinuxOmp, core::PathKind::kRtk, core::PathKind::kPik};
  const std::vector<core::PathKind> all_paths = {
      core::PathKind::kLinuxOmp, core::PathKind::kRtk, core::PathKind::kPik,
      core::PathKind::kAutoMpLinux, core::PathKind::kAutoMpNautilus};

  for (int i = 0; i < opt.count; ++i) {
    CaseParams p;
    p.kind = rng.bernoulli(0.6) ? jobs::PointSpec::Kind::kNas
                                : jobs::PointSpec::Kind::kEpcc;
    // 8XEON boots a much larger topology; sample it but keep PHI the
    // workhorse so 200 cases stay minutes-scale.
    p.machine = rng.bernoulli(0.15) ? "8xeon" : "phi";
    p.threads = static_cast<int>(rng.uniform_int(1, 6));
    if (rng.bernoulli(0.1)) p.threads = 8;
    p.point_seed = rng.bernoulli(0.5)
                       ? 42
                       : static_cast<std::uint64_t>(rng.uniform_int(1, 100000));
    // Schedule: keep a healthy share of non-FIFO interleavings (that is
    // where ordering bugs live) but sweep FIFO too -- the calibrated
    // figure pipelines run FIFO, so its invariants matter most.
    const double roll = rng.uniform();
    if (roll < 0.35) {
      p.policy = sim::SchedPolicy::kFifo;
      p.sched_seed = 0;
    } else if (roll < 0.70) {
      p.policy = sim::SchedPolicy::kRandom;
      p.sched_seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1000000));
    } else {
      p.policy = sim::SchedPolicy::kPct;
      p.sched_seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1000000));
    }
    if (p.kind == jobs::PointSpec::Kind::kNas) {
      p.path = all_paths[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(all_paths.size()) - 1))];
      const bool automp = p.path == core::PathKind::kAutoMpLinux ||
                          p.path == core::PathKind::kAutoMpNautilus;
      const auto& benches = automp ? cck_benches : all_benches;
      p.bench = benches[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(benches.size()) - 1))];
      p.timesteps = static_cast<int>(rng.uniform_int(1, 2));
      const double scales[] = {0.05, 0.1, 0.2};
      p.scale = scales[rng.uniform_int(0, 2)];
    } else {
      p.path = omp_paths[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(omp_paths.size()) - 1))];
      const double pr = rng.uniform();
      p.part = pr < 0.35   ? EpccPart::kSync
               : pr < 0.60 ? EpccPart::kSched
               : pr < 0.85 ? EpccPart::kTask
                           : EpccPart::kArray;
      p.reps = static_cast<int>(rng.uniform_int(2, 3));
      p.inner = static_cast<int>(rng.uniform_int(2, 8));
      p.tasks_per_thread = static_cast<int>(rng.uniform_int(2, 6));
      p.tree_depth = static_cast<int>(rng.uniform_int(1, 3));
    }
    p.rtk_use_pte =
        p.path == core::PathKind::kRtk ? rng.bernoulli(0.25) : false;
    // First-touch ablation: only meaningful on Nautilus-backed paths,
    // but cheap to sample everywhere (the flag is ignored elsewhere).
    const double ft = rng.uniform();
    p.first_touch = ft < 0.7 ? -1 : (ft < 0.85 ? 0 : 1);
    // Cost scales (drawn after the knobs above so their draws stay
    // stable for a given generator seed).  Personality matched to the
    // path so the scales actually bind; values from an exact-decimal
    // palette so tokens replay them bit-for-bit.
    if (rng.bernoulli(0.25)) {
      const char* pers = "linux";
      if (p.path == core::PathKind::kRtk ||
          p.path == core::PathKind::kAutoMpNautilus) {
        pers = "nautilus";
      } else if (p.path == core::PathKind::kPik) {
        pers = "pik";
      }
      const char* fields[] = {"syscall_ns",     "context_switch_ns",
                              "wake_latency_ns", "tick_cost_ns",
                              "alloc_base_ns",   "minor_fault_ns"};
      const double palette[] = {0.25, 0.5, 2.0, 4.0};
      const int n_scales = rng.bernoulli(0.25) ? 2 : 1;
      for (int s = 0; s < n_scales; ++s) {
        jobs::PointSpec::CostScale cs;
        cs.key = std::string(pers) + "." + fields[rng.uniform_int(0, 5)];
        cs.scale = palette[rng.uniform_int(0, 3)];
        // Duplicate keys would compose multiplicatively but serialize
        // ambiguously for a human; keep one entry per field.
        bool dup = false;
        for (const auto& prev : p.cost_scales) dup |= prev.key == cs.key;
        if (!dup) p.cost_scales.push_back(std::move(cs));
      }
    }
    // Hierarchical NUMA stealing: drawn after every existing knob so a
    // given generator seed reproduces the pre-knob draws exactly.  Only
    // meaningful on komp paths (the CCK task system has its own pools),
    // but cheap to sample everywhere -- the env var is simply unread.
    p.numa_sched_hier = rng.bernoulli(0.2);
    cases.push_back(std::move(p));
  }
  return cases;
}

std::string SuiteReport::summary() const {
  std::ostringstream out;
  out << "propcheck: " << cases << " cases, suite digest "
      << jobs::hex16(suite_digest);
  if (failures.empty()) {
    out << ", all invariants hold";
  } else {
    out << ", " << failures.size() << " FAILING (shrunk):";
    for (const auto& f : failures) {
      out << "\n  " << f.params.token();
      for (const auto& v : f.violations) {
        out << "\n    [" << v.invariant << "] " << v.detail;
      }
    }
  }
  return out.str();
}

SuiteReport run_suite(const SuiteOptions& opt) {
  SuiteReport report;
  report.suite_digest = 0xcbf29ce484222325ULL;
  const std::vector<CaseParams> cases = generate(opt.gen);
  for (const CaseParams& params : cases) {
    CaseOutcome outcome = check_case(params, opt.check);
    ++report.cases;
    report.suite_digest =
        (report.suite_digest ^ outcome.digest) * 0x100000001b3ULL;
    if (!outcome.ok() &&
        report.failures.size() < static_cast<std::size_t>(opt.max_failures)) {
      CaseOutcome shrunk;
      shrink(params, opt.check, &shrunk);
      report.failures.push_back(std::move(shrunk));
    }
  }
  return report;
}

schedfuzz::Scenario scenario_from_token(const std::string& token) {
  schedfuzz::Scenario s;
  s.name = "propcheck:" + token;
  s.run = [token](const schedfuzz::FuzzConfig& cfg) -> schedfuzz::Outcome {
    schedfuzz::Outcome out;
    CaseParams params;
    if (!CaseParams::parse(token, &params)) {
      out.wrong = "unparseable propcheck token: " + token;
      return out;
    }
    // The regression line's policy/seed columns are authoritative, as
    // for every other schedfuzz scenario.
    params.policy = cfg.sched.policy;
    params.sched_seed = cfg.sched.seed;
    // Filesystem-free replay: the cache-roundtrip invariant is covered
    // by the propcheck suite itself, not by regression replays.
    const CaseOutcome outcome = check_case(params, CheckOptions{});
    for (const auto& v : outcome.violations) {
      if (!out.wrong.empty()) out.wrong += "; ";
      out.wrong += "[" + v.invariant + "] " + v.detail;
    }
    return out;
  };
  return s;
}

}  // namespace kop::harness::propcheck

// Seeded property-testing CLI over random experiment points.
//
//   propcheck [--seed S] [--budget N] [--scratch <dir>] [--out <file>]
//             [--max-failures N] [--replay <token>] [--list-invariants]
//
// Draws --budget random cases from the pinned --seed and checks every
// registered invariant on each (see src/harness/propcheck).  The same
// seed always generates the same cases and, when the simulator is
// healthy, the same suite digest -- CI runs the suite twice and
// compares the digests, which is the end-to-end determinism gate.
//
// On failure each case is shrunk to a minimal failing token and, with
// --out, written as ready-to-pin schedfuzz regression lines
// ("propcheck:<token> <policy> <seed>").  Replay one token with
// --replay (also accepts the "propcheck:" prefix as pinned in
// tests/schedfuzz_regressions.txt).
//
// Cases write their cache and journal files under --scratch.  Without
// it each run makes a fresh $TMPDIR/kop-propcheck-XXXXXX and removes
// it on exit, so concurrent runs never share case files; a --scratch
// dir the user names is left in place.
//
// Exit code: 0 all invariants hold, 1 violations found, 2 usage.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "harness/propcheck/propcheck.hpp"

using namespace kop;
namespace propcheck = kop::harness::propcheck;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed S] [--budget N] [--scratch <dir>]\n"
               "          [--out <file>] [--max-failures N]\n"
               "          [--replay <token>] [--list-invariants]\n",
               argv0);
  return 2;
}

// A fresh scratch dir for this run, removed with everything in it when
// main returns.  path() is empty if the dir could not be made.
class TempScratch {
 public:
  TempScratch() {
    std::string name =
        (std::filesystem::temp_directory_path() / "kop-propcheck-XXXXXX")
            .string();
    if (mkdtemp(name.data()) != nullptr) path_ = name;
  }
  ~TempScratch() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  TempScratch(const TempScratch&) = delete;
  TempScratch& operator=(const TempScratch&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string regression_line(const propcheck::CaseParams& p) {
  return "propcheck:" + p.token() + " " + sim::sched_policy_name(p.policy) +
         " " + std::to_string(p.sched_seed);
}

int replay(const std::string& raw, const std::string& scratch) {
  std::string token = raw;
  if (token.rfind("propcheck:", 0) == 0) token = token.substr(10);
  propcheck::CaseParams params;
  if (!propcheck::CaseParams::parse(token, &params)) {
    std::fprintf(stderr, "error: unparseable token '%s'\n", token.c_str());
    return 2;
  }
  std::printf("replaying %s\n", params.describe().c_str());
  propcheck::CheckOptions copt;
  copt.scratch_dir = scratch;
  const propcheck::CaseOutcome outcome = propcheck::check_case(params, copt);
  std::printf("case digest %s\n",
              harness::jobs::hex16(outcome.digest).c_str());
  if (outcome.ok()) {
    std::printf("all invariants hold\n");
    return 0;
  }
  for (const auto& v : outcome.violations) {
    std::printf("VIOLATION [%s] %s\n", v.invariant.c_str(), v.detail.c_str());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  propcheck::SuiteOptions sopts;
  sopts.gen.seed = 1;
  sopts.gen.count = 200;
  std::string out_path, replay_token, scratch;
  bool list_invariants = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      sopts.gen.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--budget" && i + 1 < argc) {
      sopts.gen.count = std::atoi(argv[++i]);
    } else if (arg == "--scratch" && i + 1 < argc) {
      scratch = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--max-failures" && i + 1 < argc) {
      sopts.max_failures = std::atoi(argv[++i]);
    } else if (arg == "--replay" && i + 1 < argc) {
      replay_token = argv[++i];
    } else if (arg == "--list-invariants") {
      list_invariants = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (list_invariants) {
    for (const auto& name : propcheck::invariant_names())
      std::printf("%s\n", name.c_str());
    return 0;
  }
  std::optional<TempScratch> temp;
  if (scratch.empty()) {
    temp.emplace();
    scratch = temp->path();
    if (scratch.empty()) {
      std::fprintf(stderr, "error: cannot create a scratch dir: %s\n",
                   std::strerror(errno));
      return 1;
    }
  }
  if (!replay_token.empty()) return replay(replay_token, scratch);
  if (sopts.gen.count < 1) return usage(argv[0]);

  sopts.check.scratch_dir = scratch;
  std::fprintf(stderr, "[propcheck] seed %llu, %d cases, scratch %s\n",
               static_cast<unsigned long long>(sopts.gen.seed),
               sopts.gen.count, scratch.c_str());
  const propcheck::SuiteReport report = propcheck::run_suite(sopts);
  std::printf("%s\n", report.summary().c_str());

  if (!report.ok() && !out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    out << "# shrunk propcheck failures (seed "
        << static_cast<unsigned long long>(sopts.gen.seed)
        << "); pin by appending to tests/schedfuzz_regressions.txt\n";
    for (const auto& f : report.failures)
      out << regression_line(f.params) << "\n";
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "[propcheck] wrote %zu shrunk failure(s) to %s\n",
                   report.failures.size(), out_path.c_str());
    }
  }
  return report.ok() ? 0 : 1;
}

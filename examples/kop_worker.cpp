// The coordinator-fed worker loop: HELLO, then NEXT until DRAINED.
//
//   kop_worker --coord <addr> --cache-dir <dir> [--worker <id>]
//              [--max-points N] [--idle-wait-ms W] [--crash-after N]
//
// <addr> is a unix socket path (same box as the daemon) or host:port
// (kop_sweepd --listen over TCP).
//
// The loop is a jobs::LeaseSession (HELLO, heartbeat, NEXT, DONE, BYE)
// around a cache-only jobs::JobRunner.  Each GRANT carries a propcheck
// replay token; the worker materializes the PointSpec, takes a warm
// cache hit or simulates it (one retry) and stores the entry in its
// cache directory, then reports DONE.  The session's heartbeat keeps
// the worker alive at the daemon however long one point takes.  A
// point that fails prints one error line and exits 1; the session's
// BYE hands its lease back.  A daemon that goes away ends the loop.
//
// --crash-after N dies with SIGKILL *while holding* the (N+1)th lease
// -- no BYE, no cleanup -- which is exactly the failure the
// coordinator's reclaim path exists for.  CI uses it to prove a
// crashed worker's points are re-queued and the merged sweep still
// covers every point exactly once.
#include <csignal>
#include <cstdio>
#include <cstdlib>

#include <chrono>
#include <string>
#include <thread>

#include "harness/jobs/runner.hpp"
#include "harness/propcheck/propcheck.hpp"

using namespace kop;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --coord <addr> --cache-dir <dir> [--worker <id>]\n"
      "          [--max-points N] [--idle-wait-ms W] [--crash-after N]\n"
      "  --coord <addr>     kop_sweepd address: unix socket path or host:port\n"
      "  --cache-dir <dir>  this worker's result cache (merge with kop_merge)\n"
      "  --worker <id>      worker name (default <hostname>:<pid>:0)\n"
      "  --max-points N     stop after completing N points\n"
      "  --idle-wait-ms W   sleep between NEXT retries while IDLE (default 200)\n"
      "  --crash-after N    SIGKILL self while holding the (N+1)th lease\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path, cache_dir, worker;
  int max_points = 0, idle_wait_ms = 200, crash_after = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--coord" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      cache_dir = argv[++i];
    } else if (arg == "--worker" && i + 1 < argc) {
      worker = argv[++i];
    } else if (arg == "--max-points" && i + 1 < argc) {
      max_points = std::atoi(argv[++i]);
    } else if (arg == "--idle-wait-ms" && i + 1 < argc) {
      idle_wait_ms = std::atoi(argv[++i]);
    } else if (arg == "--crash-after" && i + 1 < argc) {
      crash_after = std::atoi(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty() || cache_dir.empty()) return usage(argv[0]);

  try {
    harness::jobs::LeaseSession session(socket_path, worker);
    harness::jobs::JobOptions jopts;
    jopts.jobs = 1;
    jopts.cache_dir = cache_dir;
    harness::jobs::JobRunner runner(jopts);
    const char* name = session.worker().c_str();
    // A daemon running --exit-when-drained may vanish between our DONE
    // and the next NEXT.  Nothing is left to do either way; kop_merge
    // --expect is the authority on coverage.
    const auto went_away = [name] {
      std::fprintf(stderr, "[worker %s] coordinator went away; done\n", name);
    };

    int completed = 0;
    for (;;) {
      coord::Client::Grant grant;
      try {
        grant = session.next();
      } catch (const std::exception&) {
        went_away();
        break;
      }
      if (!grant.granted) {
        if (grant.status == "DRAINED") break;
        if (grant.status == "IDLE") {
          std::this_thread::sleep_for(std::chrono::milliseconds(idle_wait_ms));
          continue;
        }
        std::fprintf(stderr, "[worker %s] rejected: %s\n", name,
                     grant.status.c_str());
        return 1;
      }
      if (crash_after >= 0 && completed >= crash_after) {
        // Die holding the lease: no DONE, no BYE.  The coordinator must
        // reclaim this point when it declares the worker dead.
        std::fprintf(stderr, "[worker %s] crashing with lease on %s\n", name,
                     coord::to_hex16(grant.point).c_str());
        ::raise(SIGKILL);
      }
      harness::propcheck::CaseParams params;
      if (!harness::propcheck::CaseParams::parse(grant.payload, &params) ||
          params.point().content_hash() != grant.point) {
        std::fprintf(stderr, "[worker %s] unusable payload for %s: '%s'\n",
                     name, coord::to_hex16(grant.point).c_str(),
                     grant.payload.c_str());
        return 1;
      }
      const auto spec = params.point();
      const auto result = runner.run({spec}).front();
      if (result.failed) {
        std::fprintf(stderr, "error: %s\n", result.error.c_str());
        return 1;
      }
      try {
        session.complete(spec);
      } catch (const std::exception&) {
        went_away();
        break;
      }
      ++completed;
      if (max_points > 0 && completed >= max_points) break;
    }

    std::fprintf(stderr,
                 "[worker %s] completed %d points (%llu simulated, %llu "
                 "warm)\n",
                 name, completed,
                 static_cast<unsigned long long>(runner.stats().executed),
                 static_cast<unsigned long long>(runner.stats().cache_hits));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

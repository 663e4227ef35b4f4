// The coordinator-fed worker loop: HELLO, then NEXT until DRAINED.
//
//   kop_worker --coord <addr> --cache-dir <dir> [--worker <id>]
//              [--max-points N] [--idle-wait-ms W] [--crash-after N]
//
// <addr> is a unix socket path (same box as the daemon) or host:port
// (kop_sweepd --listen over TCP).
//
// Each GRANT carries a propcheck replay token; the worker materializes
// the PointSpec, simulates it (or takes a warm cache hit), stores the
// entry in its cache directory, and reports DONE.  A background thread
// renews the held lease at TTL/3 (and PINGs while idle) so a healthy
// worker never decays past Suspect, however long one point takes.
//
// --crash-after N dies with SIGKILL *while holding* the (N+1)th lease
// -- no BYE, no cleanup -- which is exactly the failure the
// coordinator's reclaim path exists for.  CI uses it to prove a
// crashed worker's points are re-queued and the merged sweep still
// covers every point exactly once.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "coord/client.hpp"
#include "harness/jobs/cache.hpp"
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
      "  --worker <id>      worker name (default <hostname>:<pid>)\n"
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
  if (worker.empty()) {
    char host[256] = "?";
    ::gethostname(host, sizeof(host) - 1);
    worker = std::string(host) + ":" + std::to_string(::getpid());
  }

  try {
    coord::Client client(socket_path);
    const auto hello = client.hello(worker);
    harness::jobs::ResultCache cache(cache_dir);

    // One lease is held at a time; the renewer keeps it alive while the
    // main thread simulates (the Client serializes the shared socket).
    std::atomic<std::uint64_t> held{0};
    std::mutex stop_mu;
    std::condition_variable stop_cv;
    bool stop = false;
    std::thread renewer([&] {
      const auto interval = std::chrono::milliseconds(
          hello.ttl_ms > 0 ? std::max<std::int64_t>(hello.ttl_ms / 3, 50)
                           : 1000);
      std::unique_lock<std::mutex> lock(stop_mu);
      while (!stop_cv.wait_for(lock, interval, [&] { return stop; })) {
        lock.unlock();
        try {
          const std::uint64_t id = held.load();
          if (id != 0) {
            (void)client.renew(worker, id);
          } else {
            (void)client.request("PING " + worker);
          }
        } catch (...) {
          lock.lock();
          return;  // daemon gone; main loop will notice too
        }
        lock.lock();
      }
    });
    const auto join_renewer = [&] {
      {
        std::lock_guard<std::mutex> lock(stop_mu);
        stop = true;
      }
      stop_cv.notify_all();
      renewer.join();
    };

    int completed = 0, simulated = 0, warm = 0;
    for (;;) {
      coord::Client::Grant grant;
      try {
        grant = client.next(worker);
      } catch (const std::exception&) {
        // A daemon running --exit-when-drained may vanish between our
        // DONE and the next NEXT.  Nothing is left to do either way;
        // kop_merge --expect is the authority on coverage.
        std::fprintf(stderr, "[worker %s] coordinator went away; done\n",
                     worker.c_str());
        break;
      }
      if (!grant.granted) {
        if (grant.status == "DRAINED") break;
        if (grant.status == "IDLE") {
          std::this_thread::sleep_for(std::chrono::milliseconds(idle_wait_ms));
          continue;
        }
        std::fprintf(stderr, "[worker %s] rejected: %s\n", worker.c_str(),
                     grant.status.c_str());
        join_renewer();
        return 1;
      }
      if (crash_after >= 0 && completed >= crash_after) {
        // Die holding the lease: no DONE, no BYE.  The coordinator must
        // reclaim this point by TTL expiry or the Dead transition.
        std::fprintf(stderr, "[worker %s] crashing with lease on %s\n",
                     worker.c_str(), coord::to_hex16(grant.point).c_str());
        ::raise(SIGKILL);
      }
      harness::propcheck::CaseParams params;
      if (grant.payload.empty() ||
          !harness::propcheck::CaseParams::parse(grant.payload, &params)) {
        std::fprintf(stderr, "[worker %s] unusable payload for %s: '%s'\n",
                     worker.c_str(), coord::to_hex16(grant.point).c_str(),
                     grant.payload.c_str());
        join_renewer();
        return 1;
      }
      const auto spec = params.point();
      held.store(grant.lease_id);
      harness::jobs::PointResult result;
      if (cache.load(spec, &result)) {
        ++warm;
      } else {
        result = harness::jobs::run_point(spec);
        cache.store(spec, result);
        ++simulated;
      }
      held.store(0);
      (void)client.done(worker, grant.lease_id, grant.point);
      ++completed;
      if (max_points > 0 && completed >= max_points) break;
    }

    join_renewer();
    try {
      client.bye(worker);  // best-effort: the daemon may already be gone
    } catch (const std::exception&) {
    }
    std::fprintf(stderr,
                 "[worker %s] completed %d points (%d simulated, %d warm)\n",
                 worker.c_str(), completed, simulated, warm);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

// Point-query client for a running kop_sweepd: the "millions of users"
// read path.  A warm result costs the daemon one cache lookup -- no
// simulation, no lease traffic.
//
//   kop_client --coord <addr> --get <point-hash-hex16>
//   kop_client --coord <addr> --get-token <propcheck-token>
//   kop_client --coord <addr> --get-file <list> [--out-dir <dir>]
//   kop_client --coord <addr> --stats
//   kop_client --coord <addr> --wait-drained [--timeout-ms T | --timeout S]
//   kop_client --coord <addr> --shutdown
//
// <addr> is a unix socket path or host:port.
//
// --get prints the kop-metrics v1 entry document on stdout and exits 0.
// A known-but-unfinished point exits 2 (stderr says queued/leased); a
// finished point the daemon has no cache for also exits 2 (COMPLETE);
// an unknown hash exits 3.  --get-token hashes a replay token locally
// first, so callers never need to know the hash scheme.
//
// --get-file reads hashes or replay tokens (one per line, `#` comments)
// and resolves them with batched MGET -- one round trip per 64 points
// instead of one per point.  Per-point status lines go to stdout; with
// --out-dir every HIT document is written to
// <dir>/kop-point-<hash>.json.  Exit: 0 all served or complete, 2 any
// pending, 3 any unknown.
//
// --wait-drained polls STATS with exponential backoff (25ms doubling to
// 2s); --timeout-ms / --timeout bound the wait and exit 2 on expiry,
// and a daemon that vanishes mid-wait is an error (exit 1), never a
// hang.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <string>
#include <thread>
#include <vector>

#include <chrono>

#include "coord/client.hpp"
#include "harness/propcheck/propcheck.hpp"

using namespace kop;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --coord <addr> (--get <hash> | --get-token <token> |\n"
      "          --get-file <list> [--out-dir <dir>] | --stats |\n"
      "          --wait-drained [--timeout-ms T | --timeout S] | --shutdown)\n"
      "  --coord <addr>     coordinator: unix socket path or host:port\n"
      "  --get <hash>       fetch one point's cached entry by content hash\n"
      "                     (exit 0 HIT, 2 PENDING/COMPLETE, 3 UNKNOWN)\n"
      "  --get-token <tok>  same, addressed by a propcheck replay token\n"
      "  --get-file <list>  batched fetch: hashes or tokens, one per line\n"
      "                     (MGET, one round trip per 64 points)\n"
      "  --out-dir <dir>    with --get-file: write HIT docs to\n"
      "                     <dir>/kop-point-<hash>.json\n"
      "  --stats            print the daemon's status JSON\n"
      "  --wait-drained     poll until every point is complete\n"
      "                     (exponential backoff, 25ms doubling to 2s)\n"
      "  --timeout-ms T     give up waiting after T ms (exit 2)\n"
      "  --timeout S        same, in whole seconds\n"
      "  --shutdown         ask the daemon to exit\n",
      argv0);
  return 2;
}

int run_get(coord::Client& client, std::uint64_t hash) {
  const auto reply = client.get(hash);
  if (reply.status == "HIT") {
    std::fputs(reply.doc.c_str(), stdout);
    return 0;
  }
  if (reply.status == "PENDING") {
    std::fprintf(stderr, "PENDING %s\n", reply.detail.c_str());
    return 2;
  }
  if (reply.status == "COMPLETE") {
    std::fprintf(stderr, "COMPLETE (finished, but this daemon has no cache "
                         "for it)\n");
    return 2;
  }
  std::fprintf(stderr, "%s\n", reply.status.c_str());
  return 3;
}

// A --get-file line is a 16-digit hex hash or a propcheck replay token.
bool line_to_hash(const std::string& line, std::uint64_t* hash) {
  if (coord::parse_hex16(line, hash)) return true;
  harness::propcheck::CaseParams params;
  if (!harness::propcheck::CaseParams::parse(line, &params)) return false;
  *hash = params.point().content_hash();
  return true;
}

int run_get_file(coord::Client& client, const std::string& list_path,
                 const std::string& out_dir) {
  std::ifstream in(list_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", list_path.c_str());
    return 1;
  }
  std::vector<std::uint64_t> hashes;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') continue;
    std::uint64_t hash = 0;
    if (!line_to_hash(line, &hash)) {
      std::fprintf(stderr, "error: %s:%zu: neither a hex16 hash nor a "
                           "replay token\n",
                   list_path.c_str(), line_no);
      return 1;
    }
    hashes.push_back(hash);
  }
  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "error: cannot create %s: %s\n", out_dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
  }
  const std::uint64_t trips_before = client.round_trips();
  const auto replies = client.mget(hashes);
  const std::uint64_t trips = client.round_trips() - trips_before;
  std::size_t hit = 0, complete = 0, pending = 0, unknown = 0;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const auto& reply = replies[i];
    std::string detail;
    if (reply.status == "HIT") {
      ++hit;
      if (!out_dir.empty()) {
        const std::string path =
            out_dir + "/kop-point-" + coord::to_hex16(hashes[i]) + ".json";
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << reply.doc;
        if (!out) {
          std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
          return 1;
        }
        detail = " -> " + path;
      }
    } else if (reply.status == "COMPLETE") {
      ++complete;
    } else if (reply.status == "PENDING") {
      ++pending;
      detail = " " + reply.detail;
    } else {
      ++unknown;
    }
    std::printf("%s %s%s\n", coord::to_hex16(hashes[i]).c_str(),
                reply.status.c_str(), detail.c_str());
  }
  std::fprintf(stderr,
               "[get-file] %zu point(s): %zu hit, %zu complete, %zu pending, "
               "%zu unknown in %llu round trip(s)\n",
               replies.size(), hit, complete, pending, unknown,
               static_cast<unsigned long long>(trips));
  if (unknown > 0) return 3;
  if (pending > 0) return 2;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string coord_addr, get_hash, get_token, get_file, out_dir;
  bool stats = false, wait_drained = false, shutdown = false;
  long timeout_ms = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--coord" && i + 1 < argc) {
      coord_addr = argv[++i];
    } else if (arg == "--get" && i + 1 < argc) {
      get_hash = argv[++i];
    } else if (arg == "--get-token" && i + 1 < argc) {
      get_token = argv[++i];
    } else if (arg == "--get-file" && i + 1 < argc) {
      get_file = argv[++i];
    } else if (arg == "--out-dir" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--wait-drained") {
      wait_drained = true;
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      timeout_ms = std::atol(argv[++i]);
    } else if (arg == "--timeout" && i + 1 < argc) {
      timeout_ms = std::atol(argv[++i]) * 1000;
    } else if (arg == "--shutdown") {
      shutdown = true;
    } else {
      return usage(argv[0]);
    }
  }
  const int actions = !get_hash.empty() + !get_token.empty() +
                      !get_file.empty() + stats + wait_drained + shutdown;
  if (coord_addr.empty() || actions != 1) return usage(argv[0]);

  try {
    coord::Client client(coord_addr);

    if (!get_hash.empty()) {
      std::uint64_t hash = 0;
      if (!coord::parse_hex16(get_hash, &hash)) {
        std::fprintf(stderr, "error: --get wants a 16-digit hex hash\n");
        return 2;
      }
      return run_get(client, hash);
    }
    if (!get_token.empty()) {
      harness::propcheck::CaseParams params;
      if (!harness::propcheck::CaseParams::parse(get_token, &params)) {
        std::fprintf(stderr, "error: bad replay token\n");
        return 2;
      }
      return run_get(client, params.point().content_hash());
    }
    if (!get_file.empty()) return run_get_file(client, get_file, out_dir);
    if (stats) {
      std::printf("%s\n", client.stats().c_str());
      return 0;
    }
    if (wait_drained) {
      const auto start = std::chrono::steady_clock::now();
      // Exponential backoff: an idle daemon should not eat a core's
      // worth of STATS traffic from a parked waiter.
      long sleep_ms = 25;
      for (;;) {
        // STATS is one line of JSON; "drained" is its last key.
        if (client.stats().find("\"drained\":true") != std::string::npos) {
          return 0;
        }
        const long waited =
            static_cast<long>(std::chrono::duration_cast<
                                  std::chrono::milliseconds>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
        if (timeout_ms >= 0 && waited >= timeout_ms) {
          std::fprintf(stderr, "timed out waiting for drain\n");
          return 2;
        }
        long nap = sleep_ms;
        if (timeout_ms >= 0 && waited + nap > timeout_ms) {
          nap = timeout_ms - waited;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(nap));
        sleep_ms = std::min(sleep_ms * 2, 2000L);
      }
    }
    client.shutdown();
    return 0;
  } catch (const std::exception& e) {
    // Covers the daemon vanishing mid---wait-drained too: a gone
    // coordinator is an error exit, never an infinite poll.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

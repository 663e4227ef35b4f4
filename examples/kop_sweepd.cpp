// The sweep coordinator daemon: lease-based dispatch over a unix or
// TCP socket, answering point queries straight from the result cache.
//
//   kop_sweepd --listen <addr> [--cache-dir <dir>] [--journal <file>]
//              (--points <token-file> | --gen-seed S --gen-count N)
//              [--suspect-ms S] [--dead-ms D]
//              [--exit-when-drained] [--manifest <out>]
//   kop_sweepd --dump-journal <file> [--verify]
//
// <addr> is a unix socket path (one box) or host:port (multi-box TCP).
//
// The sweep manifest is a list of propcheck replay tokens, either read
// from a file (one per line, `#` comments) or drawn from the seeded
// propcheck generator -- the same deterministic case distribution the
// invariant suite runs, so a coordinated sweep is replayable from two
// integers.  Workers (kop_worker, or any fig binary with --coord)
// lease points, heartbeat while simulating, and report completions.  A
// lease lives as long as its holder: a worker silent for --dead-ms is
// declared dead and its points re-queued.
//
// With --cache-dir the daemon also answers `GET <point-hash>` from the
// cache (kop_client): warm results are served without any simulation,
// and at startup every already-cached point is marked complete, so a
// restarted coordinator re-dispatches exactly the unfinished work.
//
// With --journal every point registration and completion is appended
// to a checksummed crash ledger; a restart on the same journal replays
// it before the cache sync runs: every registered point comes back
// (worker-enumerated ones included), the completed ones complete and
// the rest queued.  A restart ends every worker session, so restart the
// workers too; completed points are not re-run.  --dump-journal
// pretty-prints a journal offline; --verify makes it a silent checksum
// pass.
//
// --manifest writes the sweep's coverage manifest
// (harness::jobs::manifest_text); after the sweep, `kop_merge --expect
// <manifest>` over the worker caches proves every point was completed
// exactly once.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coord/coordinator.hpp"
#include "coord/server.hpp"
#include "harness/jobs/cache.hpp"
#include "harness/jobs/merge.hpp"
#include "harness/propcheck/propcheck.hpp"

using namespace kop;

namespace {

coord::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --listen <addr> [--cache-dir <dir>] [--journal <file>]\n"
      "          (--points <token-file> | --gen-seed S --gen-count N)\n"
      "          [--suspect-ms S] [--dead-ms D]\n"
      "          [--exit-when-drained] [--manifest <out>]\n"
      "       %s --dump-journal <file> [--verify]\n"
      "  --listen <addr>      unix socket path or host:port to listen on\n"
      "  --cache-dir <dir>    result cache backing GET and warm restarts\n"
      "  --journal <file>     append-only crash ledger; a restart on the\n"
      "                       same file keeps every registered point and\n"
      "                       every completion\n"
      "  --points <file>      sweep manifest: propcheck tokens, one per line\n"
      "  --gen-seed S         draw the manifest from the seeded propcheck\n"
      "  --gen-count N        generator instead (deterministic per S,N)\n"
      "  --suspect-ms S       heartbeat silence before Suspect (default 3000)\n"
      "                       (workers PING every S/3 ms)\n"
      "  --dead-ms D          heartbeat silence before Dead (default 5000)\n"
      "                       (re-queues the dead worker's points)\n"
      "  --exit-when-drained  exit 0 once every point is complete\n"
      "  --manifest <out>     write the coverage manifest (kop_merge --expect)\n"
      "  --dump-journal <f>   pretty-print a journal record by record\n"
      "  --verify             with --dump-journal: checksum pass only\n",
      argv0, argv0);
  return 2;
}

int dump_journal(const std::string& path, bool verify_only) {
  std::string data;
  if (!harness::jobs::read_file(path, &data)) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  std::size_t start = 0, line_no = 0, records = 0;
  while (start < data.size()) {
    const std::size_t nl = data.find('\n', start);
    if (nl == std::string::npos) {
      std::fprintf(stderr, "[journal] torn tail: %zu byte(s) past the last "
                           "terminator (crash artifact, replay drops them)\n",
                   data.size() - start);
      break;
    }
    ++line_no;
    const std::string line = data.substr(start, nl - start);
    const std::size_t offset = start;
    start = nl + 1;
    if (line.empty()) continue;
    coord::JournalRecord rec;
    std::string why;
    if (!coord::decode_record(line, &rec, &why)) {
      std::fprintf(stderr, "error: %s:%zu (offset %zu): %s\n", path.c_str(),
                   line_no, offset, why.c_str());
      return 1;
    }
    ++records;
    if (verify_only) continue;
    switch (rec.type) {
      case coord::JournalRecord::Type::kRegister:
        std::printf("%6zu @%-8zu REGISTER point=%s entry=%s label=%s\n",
                    line_no, offset, coord::to_hex16(rec.hash).c_str(),
                    rec.entry.c_str(), rec.label.c_str());
        break;
      case coord::JournalRecord::Type::kDone:
        std::printf("%6zu @%-8zu DONE     point=%s\n", line_no, offset,
                    coord::to_hex16(rec.hash).c_str());
        break;
    }
  }
  std::fprintf(stderr, "[journal] %zu record(s) verified in %s\n", records,
               path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen_addr, cache_dir, points_path, manifest_path;
  std::string journal_path, dump_path;
  bool dump_verify = false;
  std::uint64_t gen_seed = 0;
  int gen_count = 0;
  coord::CoordinatorOptions copt;
  coord::ServerOptions sopt;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--listen" && i + 1 < argc) {
      listen_addr = argv[++i];
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      cache_dir = argv[++i];
    } else if (arg == "--journal" && i + 1 < argc) {
      journal_path = argv[++i];
    } else if (arg == "--dump-journal" && i + 1 < argc) {
      dump_path = argv[++i];
    } else if (arg == "--verify") {
      dump_verify = true;
    } else if (arg == "--points" && i + 1 < argc) {
      points_path = argv[++i];
    } else if (arg == "--gen-seed" && i + 1 < argc) {
      gen_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--gen-count" && i + 1 < argc) {
      gen_count = std::atoi(argv[++i]);
    } else if (arg == "--suspect-ms" && i + 1 < argc) {
      copt.liveness.suspect_after_ms = std::atoll(argv[++i]);
    } else if (arg == "--dead-ms" && i + 1 < argc) {
      copt.liveness.dead_after_ms = std::atoll(argv[++i]);
    } else if (arg == "--exit-when-drained") {
      sopt.exit_when_drained = true;
    } else if (arg == "--manifest" && i + 1 < argc) {
      manifest_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (!dump_path.empty()) return dump_journal(dump_path, dump_verify);
  if (listen_addr.empty()) return usage(argv[0]);
  if (points_path.empty() && gen_count <= 0) return usage(argv[0]);

  // Assemble the sweep manifest: token -> PointSpec.
  std::vector<std::string> tokens;
  if (!points_path.empty()) {
    std::ifstream in(points_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot read %s\n", points_path.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
        line.pop_back();
      }
      if (line.empty() || line[0] == '#') continue;
      tokens.push_back(line);
    }
  } else {
    harness::propcheck::GenOptions gen;
    gen.seed = gen_seed;
    gen.count = gen_count;
    for (const auto& c : harness::propcheck::generate(gen)) {
      tokens.push_back(c.token());
    }
  }

  std::map<std::uint64_t, harness::jobs::PointSpec> specs;
  std::vector<harness::jobs::PointSpec> manifest_points;
  std::vector<coord::PointInfo> infos;
  for (const auto& token : tokens) {
    harness::propcheck::CaseParams params;
    if (!harness::propcheck::CaseParams::parse(token, &params)) {
      std::fprintf(stderr, "error: bad point token: %s\n", token.c_str());
      return 1;
    }
    const auto spec = params.point();
    coord::PointInfo info;
    info.hash = spec.content_hash();
    info.entry = harness::jobs::ResultCache::entry_name(
        harness::jobs::ResultCache::key(spec));
    info.payload = token;
    info.label = spec.label();
    if (specs.emplace(info.hash, spec).second) {
      manifest_points.push_back(spec);
    }
    infos.push_back(std::move(info));
  }

  if (!manifest_path.empty()) {
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    out << harness::jobs::manifest_text(manifest_points);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", manifest_path.c_str());
      return 1;
    }
  }

  // The serving path: GET probes the cache by point hash.  The entry
  // document is decoded and re-encoded, so a torn or stale file is a
  // miss, never a served lie.
  std::unique_ptr<harness::jobs::ResultCache> cache;
  coord::CacheProbe probe;
  if (!cache_dir.empty()) {
    cache = std::make_unique<harness::jobs::ResultCache>(cache_dir);
    probe = [&cache, &specs](std::uint64_t hash, std::string* doc) {
      const auto it = specs.find(hash);
      if (it == specs.end()) return false;
      harness::jobs::PointResult result;
      if (!cache->load(it->second, &result)) return false;
      *doc = harness::jobs::ResultCache::encode(it->second, result);
      return true;
    };
  }

  coord::Coordinator coordinator(copt, std::move(probe));

  // Journal recovery runs before the manifest pass: the ledger is the
  // authoritative record of the previous incarnation's points and
  // completions (including worker-enumerated points the manifest does
  // not know).
  std::unique_ptr<coord::Journal> journal;
  if (!journal_path.empty()) {
    coord::ReplayStats replay;
    std::string err;
    if (!coordinator.recover_from_journal(journal_path, &replay, &err)) {
      std::fprintf(stderr, "error: journal replay failed: %s\n", err.c_str());
      return 1;
    }
    try {
      journal = std::make_unique<coord::Journal>(journal_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    coordinator.attach_journal(journal.get());
    if (replay.records > 0 || replay.truncated_bytes > 0) {
      std::fprintf(stderr,
                   "[sweepd] journal %s: replayed %zu record(s), %zu of %zu "
                   "point(s) complete%s\n",
                   journal_path.c_str(), replay.records,
                   coordinator.leases().complete(),
                   coordinator.leases().total(),
                   replay.truncated_bytes > 0 ? " (torn tail dropped)" : "");
    }
  }

  for (auto& info : infos) coordinator.add_point(std::move(info));
  const std::size_t warm = coordinator.sync_with_cache();
  if (journal != nullptr) journal->commit();

  try {
    sopt.address = listen_addr;
    coord::Server server(&coordinator, sopt);
    g_server = &server;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::fprintf(stderr,
                 "[sweepd] %zu points (%zu warm from cache) on %s "
                 "(suspect=%lld dead=%lld)\n",
                 specs.size(), warm, server.bound_address().c_str(),
                 static_cast<long long>(copt.liveness.suspect_after_ms),
                 static_cast<long long>(copt.liveness.dead_after_ms));
    server.run();
    g_server = nullptr;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::fprintf(stderr, "[sweepd] %s\n", coordinator.stats_json().c_str());
  if (sopt.exit_when_drained && !coordinator.drained()) return 1;
  return 0;
}

// The sweep coordinator: line-protocol parsing, the worker liveness
// state machine, lease lifecycle edge cases (a lease outliving any
// duration while its holder heartbeats, the double-reclaim race,
// Suspect -> Alive recovery, coordinator restart with in-flight
// leases), the cache-serving GET path, and the socket front-end
// end-to-end (kop_sweepd's Server + Client, and JobRunner --coord
// dispatch, including a session the coordinator declared dead).
#include <gtest/gtest.h>
#include <netdb.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "coord/client.hpp"
#include "coord/coordinator.hpp"
#include "coord/journal.hpp"
#include "coord/lease.hpp"
#include "coord/liveness.hpp"
#include "coord/proto.hpp"
#include "coord/server.hpp"
#include "harness/figures.hpp"
#include "harness/jobs/cache.hpp"
#include "harness/jobs/merge.hpp"
#include "harness/jobs/runner.hpp"

namespace {

namespace fs = std::filesystem;
namespace coord = kop::coord;
namespace jobs = kop::harness::jobs;

// --- proto -----------------------------------------------------------------

TEST(CoordProto, Hex16RoundTripsAndIsStrict) {
  EXPECT_EQ(coord::to_hex16(0), "0000000000000000");
  EXPECT_EQ(coord::to_hex16(0xdeadbeef12345678ULL), "deadbeef12345678");
  std::uint64_t v = 0;
  EXPECT_TRUE(coord::parse_hex16("deadbeef12345678", &v));
  EXPECT_EQ(v, 0xdeadbeef12345678ULL);
  EXPECT_FALSE(coord::parse_hex16("DEADBEEF12345678", &v));  // upper case
  EXPECT_FALSE(coord::parse_hex16("deadbeef1234567", &v));   // 15 digits
  EXPECT_FALSE(coord::parse_hex16("deadbeef123456789", &v)); // 17 digits
  EXPECT_FALSE(coord::parse_hex16("deadbeef1234567g", &v));  // not hex
}

TEST(CoordProto, ParsesEveryVerb) {
  const std::string h = coord::to_hex16(42), l = coord::to_hex16(7);
  using Verb = coord::Request::Verb;

  auto r = coord::parse_request("HELLO w-1");
  EXPECT_EQ(r.verb, Verb::kHello);
  EXPECT_EQ(r.worker, "w-1");

  r = coord::parse_request("NEXT host:123");
  EXPECT_EQ(r.verb, Verb::kNext);
  EXPECT_EQ(r.worker, "host:123");

  r = coord::parse_request("LEASE w " + h + " kop-00000000000000ff.json");
  EXPECT_EQ(r.verb, Verb::kLease);
  EXPECT_EQ(r.hash, 42u);
  EXPECT_EQ(r.entry, "kop-00000000000000ff.json");

  r = coord::parse_request("DONE w " + l + " " + h);
  EXPECT_EQ(r.verb, Verb::kDone);
  EXPECT_EQ(r.lease_id, 7u);
  EXPECT_EQ(r.hash, 42u);

  EXPECT_EQ(coord::parse_request("PING w").verb, Verb::kPing);
  EXPECT_EQ(coord::parse_request("BYE w").verb, Verb::kBye);
  r = coord::parse_request("GET " + h);
  EXPECT_EQ(r.verb, Verb::kGet);
  EXPECT_EQ(r.hash, 42u);
  EXPECT_EQ(coord::parse_request("STATS").verb, Verb::kStats);
  EXPECT_EQ(coord::parse_request("SHUTDOWN").verb, Verb::kShutdown);
}

TEST(CoordProto, RejectsMalformedLines) {
  using Verb = coord::Request::Verb;
  EXPECT_EQ(coord::parse_request("").verb, Verb::kInvalid);
  EXPECT_EQ(coord::parse_request("HELLO").verb, Verb::kInvalid);
  EXPECT_EQ(coord::parse_request("HELLO a b").verb, Verb::kInvalid);
  EXPECT_EQ(coord::parse_request("FROB w").verb, Verb::kInvalid);
  EXPECT_EQ(coord::parse_request("GET 123").verb, Verb::kInvalid);
  EXPECT_EQ(coord::parse_request("LEASE w nothex0000000000x").verb,
            Verb::kInvalid);
  // Protocol v2 has no lease renewal: a lease lives as long as its
  // holder heartbeats.
  EXPECT_EQ(coord::parse_request("RENEW w " + coord::to_hex16(7)).verb,
            Verb::kInvalid);
  // Worker ids are charset- and length-limited.
  EXPECT_EQ(coord::parse_request("HELLO bad`name").verb, Verb::kInvalid);
  EXPECT_EQ(coord::parse_request("HELLO " + std::string(200, 'a')).verb,
            Verb::kInvalid);
  // Every invalid parse says why.
  EXPECT_FALSE(coord::parse_request("HELLO").error.empty());
}

TEST(CoordProto, ParseAddressDistinguishesUnixFromTcp) {
  coord::Address a;
  std::string err;

  // Anything with a slash, or without a colon, is a unix path.
  ASSERT_TRUE(coord::parse_address("/tmp/kop.sock", &a, &err));
  EXPECT_EQ(a.kind, coord::Address::Kind::kUnix);
  EXPECT_EQ(a.path, "/tmp/kop.sock");
  ASSERT_TRUE(coord::parse_address("relative.sock", &a, &err));
  EXPECT_EQ(a.kind, coord::Address::Kind::kUnix);
  // A path with a colon stays a path as long as it has a slash.
  ASSERT_TRUE(coord::parse_address("./odd:name.sock", &a, &err));
  EXPECT_EQ(a.kind, coord::Address::Kind::kUnix);
  EXPECT_EQ(a.path, "./odd:name.sock");

  // host:port splits at the *last* colon; the port must be numeric.
  ASSERT_TRUE(coord::parse_address("127.0.0.1:7700", &a, &err));
  EXPECT_EQ(a.kind, coord::Address::Kind::kTcp);
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 7700);
  ASSERT_TRUE(coord::parse_address("sweephost:0", &a, &err));
  EXPECT_EQ(a.port, 0);  // ephemeral-port request

  EXPECT_FALSE(coord::parse_address("", &a, &err));
  EXPECT_FALSE(coord::parse_address("host:", &a, &err));
  EXPECT_FALSE(coord::parse_address("host:notaport", &a, &err));
  EXPECT_FALSE(coord::parse_address("host:70000", &a, &err));
  EXPECT_FALSE(err.empty());
}

TEST(CoordProto, ParsesAndBoundsMget) {
  using Verb = coord::Request::Verb;
  std::string line = "MGET";
  for (int i = 1; i <= static_cast<int>(coord::kMgetMaxHashes); ++i) {
    line += " " + coord::to_hex16(static_cast<std::uint64_t>(i));
  }
  auto r = coord::parse_request(line);
  EXPECT_EQ(r.verb, Verb::kMget);
  ASSERT_EQ(r.hashes.size(), coord::kMgetMaxHashes);
  EXPECT_EQ(r.hashes.front(), 1u);
  EXPECT_EQ(r.hashes.back(), coord::kMgetMaxHashes);

  // One over the cap, an empty batch, and a bad hash all fail loudly.
  EXPECT_EQ(coord::parse_request(line + " " + coord::to_hex16(65)).verb,
            Verb::kInvalid);
  EXPECT_EQ(coord::parse_request("MGET").verb, Verb::kInvalid);
  EXPECT_EQ(coord::parse_request("MGET nothex").verb, Verb::kInvalid);
}

// --- liveness --------------------------------------------------------------

TEST(CoordLiveness, FullStateMachineWithRecovery) {
  coord::LivenessOptions opt;
  opt.suspect_after_ms = 3000;
  opt.dead_after_ms = 10000;
  coord::LivenessTracker lv(opt);

  EXPECT_EQ(lv.state("w"), coord::WorkerState::kUnknown);
  EXPECT_EQ(lv.heartbeat("w", 0), coord::WorkerState::kUnknown);  // no HELLO

  EXPECT_EQ(lv.hello("w", 0), 1u);
  EXPECT_EQ(lv.state("w"), coord::WorkerState::kAlive);

  // Silence just below the threshold keeps it Alive.
  EXPECT_TRUE(lv.advance(2999).empty());
  EXPECT_EQ(lv.state("w"), coord::WorkerState::kAlive);
  // At the threshold it becomes Suspect...
  EXPECT_TRUE(lv.advance(3000).empty());
  EXPECT_EQ(lv.state("w"), coord::WorkerState::kSuspect);
  // ...and a late heartbeat recovers it (Suspect -> Alive).
  EXPECT_EQ(lv.heartbeat("w", 3500), coord::WorkerState::kAlive);
  EXPECT_EQ(lv.state("w"), coord::WorkerState::kAlive);
  const auto snap = lv.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].suspects, 1u);
  EXPECT_EQ(snap[0].recoveries, 1u);

  // Full silence runs Alive -> Suspect -> Dead; the death is reported
  // exactly once.
  EXPECT_TRUE(lv.advance(3500 + 3000).empty());
  EXPECT_EQ(lv.state("w"), coord::WorkerState::kSuspect);
  const auto died = lv.advance(3500 + 10000);
  ASSERT_EQ(died.size(), 1u);
  EXPECT_EQ(died[0], "w");
  EXPECT_TRUE(lv.advance(3500 + 10001).empty());

  // Dead is terminal per incarnation: heartbeats don't resurrect...
  EXPECT_EQ(lv.heartbeat("w", 14000), coord::WorkerState::kDead);
  EXPECT_EQ(lv.state("w"), coord::WorkerState::kDead);
  // ...but a fresh HELLO registers incarnation 2, Alive again.
  EXPECT_EQ(lv.hello("w", 14000), 2u);
  EXPECT_EQ(lv.state("w"), coord::WorkerState::kAlive);
}

// --- lease lifecycle edge cases --------------------------------------------

coord::PointInfo synthetic_point(std::uint64_t hash) {
  coord::PointInfo info;
  info.hash = hash;
  info.label = "synthetic";
  return info;
}

// A lease has no expiry of its own: while its holder heartbeats, the
// point stays leased however long it simulates, and its DONE is the
// lease's own.
TEST(CoordLease, LeaseOutlivesAnyDurationWhileHolderHeartbeats) {
  coord::Coordinator c({}, {});
  c.add_point(synthetic_point(1));
  c.handle_line("HELLO w", 0);
  const auto g = coord::split_tokens(c.handle_line("NEXT w", 0));
  ASSERT_EQ(g[0], "GRANT");

  constexpr std::int64_t kHourMs = 3600 * 1000;
  for (std::int64_t now = 500; now <= kHourMs; now += 500) {
    ASSERT_EQ(c.handle_line("PING w", now), "OK alive") << "at " << now;
    c.tick(now);
  }
  EXPECT_EQ(c.leases().point_state(1), coord::PointState::kLeased);
  EXPECT_EQ(c.counters().get("points_requeued"), 0u);
  EXPECT_EQ(c.handle_line("DONE w " + g[2] + " " + g[1], kHourMs), "OK");
  EXPECT_TRUE(c.drained());
}

TEST(CoordLease, DoubleReclaimRequeuesExactlyOnce) {
  coord::LeaseTable table;
  table.add_point(synthetic_point(5));
  coord::Lease lease;
  ASSERT_EQ(table.grant_next("w1", &lease), coord::GrantOutcome::kGranted);

  // Two racing reclaims of the same dead worker (its Dead verdict and
  // its late BYE): the second finds nothing, the point is queued
  // exactly once.
  EXPECT_EQ(table.reclaim_worker("w1").size(), 1u);
  EXPECT_EQ(table.reclaim_worker("w1").size(), 0u);
  EXPECT_EQ(table.queued(), 1u);

  // The point re-grants to another worker with a fresh lease id.
  coord::Lease lease2;
  ASSERT_EQ(table.grant_next("w2", &lease2), coord::GrantOutcome::kGranted);
  EXPECT_EQ(lease2.point, 5u);
  EXPECT_NE(lease2.id, lease.id);

  // The original holder's id no longer resolves (the Coordinator
  // resolves its late DONE by point hash instead); completing the point
  // retires the live lease with it.
  EXPECT_EQ(table.lease_by_id(lease.id), nullptr);
  EXPECT_EQ(table.point_state(5), coord::PointState::kLeased);
  EXPECT_TRUE(table.mark_complete(5));
  EXPECT_EQ(table.lease_by_id(lease2.id), nullptr);
  EXPECT_EQ(table.leased(), 0u);
  EXPECT_TRUE(table.drained());
}

// The same race at the protocol level: the coordinator accepts exactly
// one completion, attributing the late one as OK-STALE / DUP.
TEST(CoordLease, StaleCompletionResolvesByHashExactlyOnce) {
  coord::CoordinatorOptions opt;
  opt.liveness.suspect_after_ms = 50;
  opt.liveness.dead_after_ms = 100;
  coord::Coordinator c(opt, {});
  c.add_point(synthetic_point(5));
  const std::string h = coord::to_hex16(5);

  EXPECT_EQ(c.handle_line("HELLO w1", 0).rfind("OK 1 ", 0), 0u);
  const auto g1 = coord::split_tokens(c.handle_line("NEXT w1", 0));
  ASSERT_EQ(g1[0], "GRANT");
  const std::string l1 = g1[2];

  c.tick(100);  // w1 silent past dead-ms: declared dead, point requeued
  c.tick(100);  // double reclaim: no-op
  EXPECT_EQ(c.counters().get("points_requeued"), 1u);
  EXPECT_EQ(c.handle_line("PING w1", 150), "DEAD");

  EXPECT_EQ(c.handle_line("HELLO w2", 150).rfind("OK 1 ", 0), 0u);
  const auto g2 = coord::split_tokens(c.handle_line("NEXT w2", 150));
  ASSERT_EQ(g2[0], "GRANT");
  EXPECT_EQ(g2[1], h);

  // w1 finished anyway (deterministic result, already on disk): its
  // stale completion is accepted, w2's then lands as a duplicate.
  EXPECT_EQ(c.handle_line("DONE w1 " + l1 + " " + h, 180), "OK-STALE");
  EXPECT_EQ(c.handle_line("DONE w2 " + g2[2] + " " + h, 200), "DUP");
  EXPECT_TRUE(c.drained());
  EXPECT_EQ(c.counters().get("completions"), 1u);
  EXPECT_EQ(c.counters().get("completions_stale_lease"), 1u);
  EXPECT_EQ(c.counters().get("completions_dup"), 1u);
}

// A DONE completes by lease id only when that lease is live on the hash
// the DONE names; a live id sent with another point's hash resolves by
// the named point, and the leased point stays leased.
TEST(CoordLease, DoneWithAnotherPointsHashLeavesTheLeasedPointOpen) {
  coord::Coordinator c({}, {});
  c.add_point(synthetic_point(1));
  c.add_point(synthetic_point(2));

  c.handle_line("HELLO w", 0);
  const auto g = coord::split_tokens(c.handle_line("NEXT w", 0));
  ASSERT_EQ(g[0], "GRANT");
  ASSERT_EQ(g[1], coord::to_hex16(1));

  EXPECT_EQ(c.handle_line("DONE w " + g[2] + " " + coord::to_hex16(2), 10),
            "OK-STALE");
  EXPECT_EQ(c.leases().point_state(2), coord::PointState::kComplete);
  EXPECT_EQ(c.leases().point_state(1), coord::PointState::kLeased);
  std::uint64_t id = 0;
  ASSERT_TRUE(coord::parse_hex16(g[2], &id));
  ASSERT_NE(c.leases().lease_by_id(id), nullptr);
  EXPECT_EQ(c.leases().lease_by_id(id)->point, 1u);

  // The lease's own DONE still completes its point.
  EXPECT_EQ(c.handle_line("DONE w " + g[2] + " " + g[1], 20), "OK");
  EXPECT_TRUE(c.drained());
  EXPECT_EQ(c.counters().get("completions_stale_lease"), 1u);
}

TEST(CoordLease, DeadWorkerLeasesReclaimedAndReHelloIsNewIncarnation) {
  coord::CoordinatorOptions opt;
  opt.liveness.suspect_after_ms = 100;
  opt.liveness.dead_after_ms = 300;
  coord::Coordinator c(opt, {});
  c.add_point(synthetic_point(1));
  c.add_point(synthetic_point(2));

  c.handle_line("HELLO w1", 0);
  const auto g = coord::split_tokens(c.handle_line("NEXT w1", 0));
  ASSERT_EQ(g[0], "GRANT");

  c.tick(150);  // Suspect: leases stay put
  EXPECT_EQ(c.leases().leased(), 1u);
  c.tick(300);  // Dead: leases reclaimed
  EXPECT_EQ(c.leases().leased(), 0u);
  EXPECT_EQ(c.leases().queued(), 2u);
  EXPECT_EQ(c.counters().get("workers_died"), 1u);
  EXPECT_EQ(c.counters().get("leases_reclaimed_dead"), 1u);

  // The dead incarnation is locked out until it re-HELLOs.
  EXPECT_EQ(c.handle_line("NEXT w1", 310), "DEAD");
  EXPECT_EQ(c.handle_line("HELLO w1", 320).rfind("OK 2 ", 0), 0u);
  EXPECT_EQ(coord::split_tokens(c.handle_line("NEXT w1", 330))[0], "GRANT");
}

// --- cache-serving GET path ------------------------------------------------

TEST(CoordServe, GetAnswersHitPendingUnknown) {
  std::map<std::uint64_t, std::string> store = {{1, "doc-one\n"}};
  coord::Coordinator c({}, [&store](std::uint64_t h, std::string* doc) {
    const auto it = store.find(h);
    if (it == store.end()) return false;
    *doc = it->second;
    return true;
  });
  c.add_point(synthetic_point(1));
  c.add_point(synthetic_point(2));

  // Warm point: served with a length-prefixed body, and the serve is
  // ground truth for dispatch (the point flips to complete).
  EXPECT_EQ(c.handle_line("GET " + coord::to_hex16(1), 0),
            "HIT 8\ndoc-one\n");
  EXPECT_EQ(c.leases().point_state(1), coord::PointState::kComplete);

  // Known-but-unfinished: PENDING with the dispatch state.
  EXPECT_EQ(c.handle_line("GET " + coord::to_hex16(2), 0), "PENDING queued");
  c.handle_line("HELLO w", 0);
  c.handle_line("LEASE w " + coord::to_hex16(2), 0);
  EXPECT_EQ(c.handle_line("GET " + coord::to_hex16(2), 0), "PENDING leased");

  EXPECT_EQ(c.handle_line("GET " + coord::to_hex16(3), 0), "UNKNOWN");
  EXPECT_EQ(c.counters().get("serve_cache_hits"), 1u);
  EXPECT_EQ(c.counters().get("serve_unknown"), 1u);
}

TEST(CoordServe, MgetJoinsSubResponsesAndReportsComplete) {
  std::map<std::uint64_t, std::string> store = {{1, "doc-one\n"}};
  coord::Coordinator c({}, [&store](std::uint64_t h, std::string* doc) {
    const auto it = store.find(h);
    if (it == store.end()) return false;
    *doc = it->second;
    return true;
  });
  c.add_point(synthetic_point(1));
  c.add_point(synthetic_point(2));
  c.add_point(synthetic_point(3));

  // Point 3 completes, but its entry lives in some *worker's* cache,
  // not this daemon's: GET must say COMPLETE, not PENDING queued.
  c.handle_line("HELLO w", 0);
  const auto lease =
      coord::split_tokens(c.handle_line("LEASE w " + coord::to_hex16(3), 0));
  ASSERT_EQ(lease[0], "GRANT");
  EXPECT_EQ(
      c.handle_line("DONE w " + lease[2] + " " + coord::to_hex16(3), 0), "OK");
  EXPECT_EQ(c.handle_line("GET " + coord::to_hex16(3), 0), "COMPLETE");

  // One MGET line, sub-responses joined by '\n' in request order --
  // exactly the framing a sequence of GETs would produce (a HIT body
  // keeps its empty-line terminator inside the batch).
  const std::string reply = c.handle_line(
      "MGET " + coord::to_hex16(1) + " " + coord::to_hex16(2) + " " +
          coord::to_hex16(3) + " " + coord::to_hex16(99),
      0);
  EXPECT_EQ(reply, "HIT 8\ndoc-one\n\nPENDING queued\nCOMPLETE\nUNKNOWN");
  EXPECT_EQ(c.counters().get("serve_mget_batches"), 1u);
  EXPECT_EQ(c.counters().get("serve_mget_hashes"), 4u);
}

// --- journal ---------------------------------------------------------------

TEST(CoordJournal, RecordsRoundTripThroughEscaping) {
  coord::JournalRecord r;
  r.type = coord::JournalRecord::Type::kRegister;
  r.hash = 0xdeadbeef12345678ULL;
  r.entry = "kop-00ff.json";
  r.payload = "tok with spaces %and! bangs";
  r.label = "-starts-with-dash";
  const std::string line = coord::encode_record(r);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  coord::JournalRecord d;
  std::string err;
  ASSERT_TRUE(coord::decode_record(line, &d, &err)) << err;
  EXPECT_EQ(d.type, coord::JournalRecord::Type::kRegister);
  EXPECT_EQ(d.hash, r.hash);
  EXPECT_EQ(d.entry, r.entry);
  EXPECT_EQ(d.payload, r.payload);
  EXPECT_EQ(d.label, r.label);

  coord::JournalRecord done;
  done.type = coord::JournalRecord::Type::kDone;
  done.hash = 42;
  ASSERT_TRUE(coord::decode_record(coord::encode_record(done), &d, &err))
      << err;
  EXPECT_EQ(d.type, coord::JournalRecord::Type::kDone);
  EXPECT_EQ(d.hash, 42u);

  // Empty string fields survive too (encoded as "-").
  coord::JournalRecord bare;
  bare.type = coord::JournalRecord::Type::kRegister;
  bare.hash = 7;
  ASSERT_TRUE(coord::decode_record(coord::encode_record(bare), &d, &err))
      << err;
  EXPECT_EQ(d.type, coord::JournalRecord::Type::kRegister);
  EXPECT_EQ(d.hash, 7u);
  EXPECT_EQ(d.entry, "");
  EXPECT_EQ(d.payload, "");
  EXPECT_EQ(d.label, "");

  // A flipped byte in a *terminated* record is corruption, and the
  // error says so.
  std::string bad = line;
  bad[2] = (bad[2] == 'a') ? 'b' : 'a';
  EXPECT_FALSE(coord::decode_record(bad, &d, &err));
  EXPECT_NE(err.find("checksum"), std::string::npos);
  EXPECT_FALSE(coord::decode_record("X 12 !0000000000000000", &d, &err));
}

// Count a journal file's records by type letter.
std::map<char, int> record_types(const std::string& path) {
  std::map<char, int> types;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++types[line[0]];
  }
  return types;
}

// Drive a journaled coordinator, then replay the file into a fresh one:
// the replay is the restart table (completed points complete, the rest
// queued in registration order, no leases), a torn tail is tolerated,
// and a corrupt record is rejected with a line number.
TEST(CoordJournal, ReplayReproducesLiveTable) {
  const fs::path root =
      fs::temp_directory_path() /
      ("kop_journal_replay_" + std::to_string(getpid()));
  fs::remove_all(root);
  fs::create_directories(root);
  const std::string jpath = (root / "queue.journal").string();

  coord::CoordinatorOptions opt;
  {
    coord::Coordinator live(opt, {});
    coord::Journal journal(jpath);
    live.attach_journal(&journal);
    for (std::uint64_t h : {1, 2, 3, 4}) live.add_point(synthetic_point(h));
    live.handle_line("HELLO w1", 0);
    const auto g1 = coord::split_tokens(live.handle_line("NEXT w1", 0));
    const auto g2 = coord::split_tokens(live.handle_line("NEXT w1", 5));
    ASSERT_EQ(g1[0], "GRANT");
    ASSERT_EQ(g2[0], "GRANT");
    EXPECT_EQ(live.handle_line("DONE w1 " + g1[2] + " " + g1[1], 10), "OK");
    EXPECT_EQ(live.handle_line("PING w1", 20), "OK alive");
    journal.commit();
  }

  // Replay: point 1 complete; point 2's lease died with the daemon, so
  // it is queued again, in registration order.
  coord::Coordinator fresh(opt, {});
  coord::ReplayStats stats;
  std::string err;
  ASSERT_TRUE(fresh.recover_from_journal(jpath, &stats, &err)) << err;
  EXPECT_EQ(stats.records, 5u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  EXPECT_EQ(record_types(jpath), (std::map<char, int>{{'R', 4}, {'D', 1}}));
  EXPECT_EQ(fresh.leases().point_state(1), coord::PointState::kComplete);
  EXPECT_EQ(fresh.leases().queued_hashes(),
            (std::vector<std::uint64_t>{2, 3, 4}));
  EXPECT_EQ(fresh.leases().leased(), 0u);
  EXPECT_EQ(fresh.leases().complete(), 1u);
  const std::string expected = fresh.debug_state();

  // A torn tail (crash mid-append: no terminator) is a crash artifact,
  // tolerated and reported.
  {
    std::ofstream app(jpath, std::ios::binary | std::ios::app);
    app << "D 00000000000";  // unterminated partial record
  }
  coord::Coordinator torn(opt, {});
  ASSERT_TRUE(torn.recover_from_journal(jpath, &stats, &err)) << err;
  EXPECT_GT(stats.truncated_bytes, 0u);
  EXPECT_EQ(torn.debug_state(), expected);

  // A corrupt *terminated* record is a hard error naming the line.
  {
    std::ofstream trunc(jpath, std::ios::binary | std::ios::app);
    trunc << "\nD 00000000000000aa !0000000000000bad\n";
  }
  coord::Coordinator corrupt(opt, {});
  EXPECT_FALSE(corrupt.recover_from_journal(jpath, &stats, &err));
  EXPECT_NE(err.find("checksum"), std::string::npos);
  EXPECT_NE(err.find(jpath), std::string::npos);

  fs::remove_all(root);
}

// Grants, heartbeats, reclaims and BYEs never reach the journal: only
// what survives a restart does.
TEST(CoordJournal, HoldsOnlyRegistrationsAndCompletions) {
  const fs::path root =
      fs::temp_directory_path() /
      ("kop_journal_types_" + std::to_string(getpid()));
  fs::remove_all(root);
  fs::create_directories(root);
  const std::string jpath = (root / "queue.journal").string();

  coord::CoordinatorOptions opt;
  opt.liveness.suspect_after_ms = 50;
  opt.liveness.dead_after_ms = 100;
  {
    coord::Coordinator live(opt, {});
    coord::Journal journal(jpath);
    live.attach_journal(&journal);
    for (std::uint64_t h : {1, 2, 3}) live.add_point(synthetic_point(h));
    live.handle_line("HELLO w", 0);
    const auto g1 = coord::split_tokens(live.handle_line("NEXT w", 0));
    ASSERT_EQ(g1[0], "GRANT");
    EXPECT_EQ(live.handle_line("PING w", 50), "OK alive");
    live.tick(150);  // silent past dead-ms: a dead-worker reclaim
    EXPECT_EQ(live.counters().get("leases_reclaimed_dead"), 1u);
    EXPECT_EQ(live.handle_line("HELLO w", 160).rfind("OK 2 ", 0), 0u);
    const auto g2 = coord::split_tokens(live.handle_line("NEXT w", 160));
    ASSERT_EQ(g2[0], "GRANT");
    EXPECT_EQ(live.handle_line("DONE w " + g2[2] + " " + g2[1], 170), "OK");
    ASSERT_EQ(coord::split_tokens(live.handle_line("NEXT w", 180))[0],
              "GRANT");
    EXPECT_EQ(live.handle_line("BYE w", 190), "OK");
    EXPECT_EQ(live.counters().get("leases_released_bye"), 1u);
    live.tick(200);
  }
  EXPECT_EQ(record_types(jpath), (std::map<char, int>{{'R', 3}, {'D', 1}}));

  fs::remove_all(root);
}

// --- restart with in-flight leases -----------------------------------------

jobs::PointSpec tiny_point(int threads) {
  jobs::PointSpec p;
  p.kind = jobs::PointSpec::Kind::kNas;
  p.machine = "phi";
  p.path = kop::core::PathKind::kRtk;
  p.threads = threads;
  p.nas = kop::harness::scale_suite(kop::nas::paper_suite(), 0.25, 2)[0];
  return p;
}

TEST(CoordRestart, InFlightLeasesRequeueCompletedPointsStayComplete) {
  const fs::path root =
      fs::temp_directory_path() /
      ("kop_coord_restart_" + std::to_string(getpid()));
  fs::remove_all(root);
  fs::create_directories(root);

  std::map<std::uint64_t, jobs::PointSpec> specs;
  for (int t : {1, 2, 4}) {
    const auto spec = tiny_point(t);
    specs.emplace(spec.content_hash(), spec);
  }
  jobs::ResultCache cache(root.string());
  const coord::CacheProbe probe = [&](std::uint64_t h, std::string* doc) {
    const auto it = specs.find(h);
    if (it == specs.end()) return false;
    jobs::PointResult res;
    if (!cache.load(it->second, &res)) return false;
    *doc = jobs::ResultCache::encode(it->second, res);
    return true;
  };
  auto make = [&] {
    coord::Coordinator c({}, probe);
    for (const auto& [h, spec] : specs) {
      coord::PointInfo info;
      info.hash = h;
      info.label = spec.label();
      c.add_point(std::move(info));
    }
    return c;
  };

  // First life: two leases go out; one point is simulated, stored, and
  // reported; the other lease is still in flight when the coordinator
  // dies (leases are memory-only).
  {
    auto c1 = make();
    EXPECT_EQ(c1.sync_with_cache(), 0u);
    c1.handle_line("HELLO w", 0);
    const auto g1 = coord::split_tokens(c1.handle_line("NEXT w", 0));
    const auto g2 = coord::split_tokens(c1.handle_line("NEXT w", 0));
    ASSERT_EQ(g1[0], "GRANT");
    ASSERT_EQ(g2[0], "GRANT");
    std::uint64_t h1 = 0;
    ASSERT_TRUE(coord::parse_hex16(g1[1], &h1));
    const auto& spec = specs.at(h1);
    cache.store(spec, jobs::run_point(spec));
    EXPECT_EQ(c1.handle_line("DONE w " + g1[2] + " " + g1[1], 10), "OK");
    EXPECT_EQ(c1.leases().complete(), 1u);
    EXPECT_EQ(c1.leases().leased(), 1u);
  }

  // Restart: the cache tells the new coordinator which work is already
  // done; the in-flight lease is forgotten, so its point re-queues.
  auto c2 = make();
  EXPECT_EQ(c2.sync_with_cache(), 1u);
  EXPECT_EQ(c2.leases().complete(), 1u);
  EXPECT_EQ(c2.leases().leased(), 0u);
  EXPECT_EQ(c2.leases().queued(), 2u);

  // The re-queued points drain normally (and the warm one is never
  // re-dispatched).
  c2.handle_line("HELLO w", 0);
  std::set<std::uint64_t> regranted;
  for (int i = 0; i < 2; ++i) {
    const auto g = coord::split_tokens(c2.handle_line("NEXT w", 0));
    ASSERT_EQ(g[0], "GRANT");
    std::uint64_t h = 0;
    ASSERT_TRUE(coord::parse_hex16(g[1], &h));
    regranted.insert(h);
    EXPECT_EQ(c2.handle_line("DONE w " + g[2] + " " + g[1], 5), "OK");
  }
  EXPECT_EQ(regranted.size(), 2u);
  EXPECT_EQ(c2.handle_line("NEXT w", 10), "DRAINED");
  EXPECT_TRUE(c2.drained());

  fs::remove_all(root);
}

// --- socket front-end ------------------------------------------------------

TEST(CoordServer, EndToEndOverUnixSocket) {
  const std::string sock =
      "/tmp/kop_coord_e2e_" + std::to_string(getpid()) + ".sock";
  std::map<std::uint64_t, std::string> store = {{7, "served-doc\n"}};
  coord::Coordinator c({}, [&store](std::uint64_t h, std::string* doc) {
    const auto it = store.find(h);
    if (it == store.end()) return false;
    *doc = it->second;
    return true;
  });
  coord::PointInfo p1 = synthetic_point(1);
  p1.payload = "tok-one";
  c.add_point(std::move(p1));
  c.add_point(synthetic_point(2));

  coord::ServerOptions sopt;
  sopt.address = sock;
  sopt.poll_ms = 10;
  coord::Server server(&c, sopt);
  std::thread daemon([&] { server.run(); });

  {
    coord::Client client(sock);
    const auto hello = client.hello("tester");
    EXPECT_EQ(hello.incarnation, 1u);
    EXPECT_EQ(hello.suspect_ms, 3000);
    EXPECT_EQ(hello.dead_ms, 5000);

    // Drain the two-point sweep over the wire.
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2; ++i) {
      const auto grant = client.next("tester");
      ASSERT_TRUE(grant.granted) << grant.status;
      seen.insert(grant.point);
      if (grant.point == 1) {
        EXPECT_EQ(grant.payload, "tok-one");
      }
      EXPECT_TRUE(client.done("tester", grant.lease_id, grant.point));
    }
    EXPECT_EQ(seen.size(), 2u);
    EXPECT_EQ(client.next("tester").status, "DRAINED");

    // GET serves a body through the same connection.
    const auto hit = client.get(7);
    EXPECT_EQ(hit.status, "HIT");
    EXPECT_EQ(hit.doc, "served-doc\n");
    EXPECT_EQ(client.get(999).status, "UNKNOWN");

    // STATS stays in frame after a HIT body.
    EXPECT_NE(client.stats().find("\"drained\":true"), std::string::npos);
    client.shutdown();
  }
  daemon.join();
  EXPECT_TRUE(c.drained());
}

TEST(CoordServer, StopFromAnotherThreadEndsRun) {
  // stop() is how kop_sweepd's signal handler and embedding programs
  // end the loop: a flag written on one thread while run() polls it on
  // another.  The sweep never drains, so nothing else can end run().
  coord::Coordinator c({}, {});
  c.add_point(synthetic_point(1));
  coord::ServerOptions sopt;
  sopt.address = "127.0.0.1:0";
  sopt.poll_ms = 10;
  coord::Server server(&c, sopt);
  std::promise<void> returned;
  std::thread daemon([&] {
    server.run();
    returned.set_value();
  });

  {
    // The loop is up and serving before the stop.
    coord::Client client(server.bound_address());
    EXPECT_NE(client.stats().find("\"points\""), std::string::npos);
  }
  server.stop();
  const bool ended =
      returned.get_future().wait_for(std::chrono::seconds(10)) ==
      std::future_status::ready;
  // A loop that missed the flag still has to be ended for the join.
  if (!ended) coord::Client(server.bound_address()).shutdown();
  daemon.join();
  EXPECT_TRUE(ended) << "run() did not return after stop()";
  EXPECT_FALSE(c.drained());
}

TEST(CoordServer, JobRunnerCoordModeCoversSweepExactlyOnce) {
  const std::string sock =
      "/tmp/kop_coord_jr_" + std::to_string(getpid()) + ".sock";
  const fs::path root =
      fs::temp_directory_path() / ("kop_coord_jr_" + std::to_string(getpid()));
  fs::remove_all(root);
  fs::create_directories(root);

  // Worker-enumerated sweep: the daemon starts empty and registers
  // points as LEASE requests arrive.
  coord::Coordinator c({}, {});
  coord::ServerOptions sopt;
  sopt.address = sock;
  sopt.poll_ms = 10;
  coord::Server server(&c, sopt);
  std::thread daemon([&] { server.run(); });

  std::vector<jobs::PointSpec> points;
  for (int t : {1, 2, 3, 4}) points.push_back(tiny_point(t));

  constexpr int kWorkers = 3;
  std::vector<jobs::JobRunner::Stats> stats(kWorkers);
  {
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        jobs::JobOptions jopts;
        jopts.jobs = 1;
        jopts.coord_socket = sock;
        jopts.cache_dir = (root / ("worker" + std::to_string(w))).string();
        jobs::JobRunner runner(jopts);
        const auto results = runner.run(points);
        jobs::require_ok(points, results);
        stats[w] = runner.stats();
      });
    }
    for (auto& t : workers) t.join();
  }

  {
    coord::Client admin(sock);
    admin.shutdown();
  }
  daemon.join();

  // Every point executed exactly once across the fleet; the rest were
  // skipped as leased-elsewhere or already complete.
  std::uint64_t executed = 0, skipped = 0;
  for (const auto& s : stats) {
    executed += s.executed;
    skipped += s.skipped;
  }
  EXPECT_EQ(executed, points.size());
  EXPECT_EQ(executed + skipped,
            static_cast<std::uint64_t>(kWorkers) * points.size());
  for (const auto& p : points) {
    const std::string entry =
        "kop-" + jobs::hex16(jobs::ResultCache::key(p)) + ".json";
    int copies = 0;
    for (int w = 0; w < kWorkers; ++w) {
      if (fs::exists(root / ("worker" + std::to_string(w)) / entry)) ++copies;
    }
    EXPECT_EQ(copies, 1) << p.label();
  }
  EXPECT_TRUE(c.drained());
  EXPECT_EQ(c.counters().get("completions"),
            static_cast<std::uint64_t>(points.size()));
  // One LEASE per point decides who runs it; no worker probes first.
  EXPECT_EQ(c.counters().get("leases_granted"),
            static_cast<std::uint64_t>(points.size()));
  EXPECT_EQ(c.counters().get("serve_mget_batches"), 0u);

  fs::remove_all(root);
}

// A daemon that goes away mid-sweep fails the runner's points, with an
// error naming the coordinator; nothing throws out of a pool thread.
TEST(CoordServer, RunnerReportsALostDaemonAsFailedPoints) {
  const std::string sock =
      "/tmp/kop_coord_lost_" + std::to_string(getpid()) + ".sock";
  coord::Coordinator c({}, {});
  coord::ServerOptions sopt;
  sopt.address = sock;
  sopt.poll_ms = 10;
  coord::Server server(&c, sopt);
  std::thread daemon([&] { server.run(); });

  jobs::JobOptions jopts;
  jopts.jobs = 2;
  jopts.coord_socket = sock;
  jobs::JobRunner runner(jopts);  // HELLO while the daemon is up
  coord::Client(sock).shutdown();
  daemon.join();

  std::vector<jobs::PointSpec> points;
  for (int t : {1, 2, 3, 4}) points.push_back(tiny_point(t));
  const auto results = runner.run(points);
  ASSERT_EQ(results.size(), points.size());
  for (const auto& r : results) {
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.error.find("coordinator"), std::string::npos) << r.error;
  }
  EXPECT_EQ(runner.stats().failures, 4u);
  EXPECT_EQ(runner.stats().executed, 0u);
}

// A session the coordinator declared dead (stopped or starved past the
// dead window while the daemon ran on) says HELLO again as a fresh
// incarnation and keeps leasing: no point of its sweep is skipped.  The
// real Coordinator sits behind a one-connection loop on a test clock
// that ticks before each request, so the Dead verdict needs no waiting.
TEST(CoordServer, SessionDeclaredDeadSaysHelloAgainAndKeepsLeasing) {
  const std::string sock =
      "/tmp/kop_coord_dead_" + std::to_string(getpid()) + ".sock";
  ::unlink(sock.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un sun{};
  sun.sun_family = AF_UNIX;
  std::strncpy(sun.sun_path, sock.c_str(), sizeof(sun.sun_path) - 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&sun),
                   sizeof(sun)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);

  const coord::CoordinatorOptions opt;
  coord::Coordinator c(opt, {});
  std::atomic<std::int64_t> now{0};
  std::thread loop([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::string rbuf;
    for (;;) {
      const std::size_t nl = rbuf.find('\n');
      if (nl == std::string::npos) {
        char chunk[4096];
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0) break;  // the session hung up
        rbuf.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      const std::string line = rbuf.substr(0, nl);
      rbuf.erase(0, nl + 1);
      c.tick(now);
      const std::string reply = c.handle_line(line, now) + "\n";
      if (::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(reply.size())) {
        break;
      }
    }
    ::close(fd);
  });

  const std::vector<jobs::PointSpec> points = {tiny_point(1), tiny_point(2)};
  jobs::JobRunner::Stats stats;
  {
    jobs::JobOptions jopts;
    jopts.jobs = 1;
    jopts.coord_socket = sock;
    jobs::JobRunner runner(jopts);  // HELLO at t = 0
    now = opt.liveness.dead_after_ms + 1000;  // silent past the dead window
    jobs::require_ok(points, runner.run(points));
    stats = runner.stats();
  }  // BYE and hang up: the loop ends
  loop.join();
  ::close(listener);
  ::unlink(sock.c_str());

  EXPECT_EQ(stats.executed, points.size());
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(c.counters().get("workers_died"), 1u);
  EXPECT_TRUE(c.drained());
}

// A figure binary's --coord run: each worker prints a coverage note in
// place of the table and records only the points it ran, so the
// workers' artifacts together hold every point exactly once -- and
// their merged caches replay the figure byte-identically to a cold run
// without simulating a single point again.
TEST(CoordServer, FigureCoordModeRecordsEachPointOnce) {
  const std::string sock =
      "/tmp/kop_coord_fig_" + std::to_string(getpid()) + ".sock";
  const fs::path root =
      fs::temp_directory_path() / ("kop_coord_fig_" + std::to_string(getpid()));
  fs::remove_all(root);
  fs::create_directories(root);

  coord::Coordinator c({}, {});
  coord::ServerOptions sopt;
  sopt.address = sock;
  sopt.poll_ms = 10;
  coord::Server server(&c, sopt);
  std::thread daemon([&] { server.run(); });

  auto suite = kop::harness::scale_suite(kop::nas::paper_suite(), 0.25, 2);
  suite.resize(1);
  const std::vector<int> scales = {1, 2};
  const auto points = kop::harness::enumerate_nas_normalized(
      "phi", {kop::core::PathKind::kRtk}, scales, suite);
  const std::size_t n_points = points.size();

  constexpr int kWorkers = 2;
  std::vector<std::string> notes(kWorkers);
  std::vector<std::size_t> recorded(kWorkers);
  {
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        jobs::JobOptions jopts;
        jopts.jobs = 1;
        jopts.coord_socket = sock;
        jopts.cache_dir = (root / ("worker" + std::to_string(w))).string();
        kop::harness::MetricsSink sink("coord_test");
        notes[w] = kop::harness::print_nas_normalized(
            "x", "phi", {kop::core::PathKind::kRtk}, scales, suite, &sink,
            jopts);
        recorded[w] = sink.size();
      });
    }
    for (auto& t : workers) t.join();
  }
  {
    coord::Client admin(sock);
    admin.shutdown();
  }
  daemon.join();

  for (const auto& note : notes) {
    EXPECT_EQ(note.rfind("[coord] executed ", 0), 0u) << note;
    EXPECT_NE(note.find(" of " + std::to_string(n_points) + " points"),
              std::string::npos)
        << note;
  }
  EXPECT_EQ(recorded[0] + recorded[1], n_points);
  EXPECT_TRUE(c.drained());

  jobs::MergeOptions mopts;
  mopts.dest = (root / "merged").string();
  for (int w = 0; w < kWorkers; ++w)
    mopts.sources.push_back((root / ("worker" + std::to_string(w))).string());
  const auto report = jobs::merge_caches(mopts);
  EXPECT_TRUE(report.ok()) << report.text();
  EXPECT_EQ(report.merged, n_points);

  jobs::JobOptions cold;
  cold.jobs = 1;
  kop::harness::MetricsSink cold_sink("coord_test");
  const std::string reference = kop::harness::print_nas_normalized(
      "x", "phi", {kop::core::PathKind::kRtk}, scales, suite, &cold_sink, cold);
  jobs::JobOptions warm = cold;
  warm.cache_dir = mopts.dest;
  kop::harness::MetricsSink warm_sink("coord_test");
  const std::string replay = kop::harness::print_nas_normalized(
      "x", "phi", {kop::core::PathKind::kRtk}, scales, suite, &warm_sink, warm);
  EXPECT_EQ(replay, reference);
  EXPECT_EQ(warm_sink.to_json(), cold_sink.to_json());

  jobs::JobRunner runner(warm);
  jobs::require_ok(points, runner.run(points));
  EXPECT_EQ(runner.stats().executed, 0u) << "replay re-simulated points";
  EXPECT_EQ(runner.stats().cache_hits, n_points);
  fs::remove_all(root);
}

// --- TCP transport ---------------------------------------------------------

// Raw TCP connection for exercising the server below the Client layer.
int raw_connect(const std::string& bound) {
  coord::Address addr;
  std::string err;
  EXPECT_TRUE(coord::parse_address(bound, &addr, &err)) << err;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  EXPECT_EQ(getaddrinfo(addr.host.c_str(), std::to_string(addr.port).c_str(),
                        &hints, &res),
            0);
  int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, res->ai_addr, res->ai_addrlen), 0);
  freeaddrinfo(res);
  return fd;
}

// Read until EOF or `stop` appears in the data; returns what was read.
std::string read_until_eof(int fd, std::size_t cap = 1u << 22) {
  std::string got;
  char buf[4096];
  while (got.size() < cap) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    got.append(buf, static_cast<std::size_t>(n));
  }
  return got;
}

TEST(CoordServer, EndToEndOverTcpWithBatchedGet) {
  std::map<std::uint64_t, std::string> store;
  for (std::uint64_t h = 100; h < 164; ++h) {
    store[h] = "doc-" + std::to_string(h) + "\n";
  }
  coord::Coordinator c({}, [&store](std::uint64_t h, std::string* doc) {
    const auto it = store.find(h);
    if (it == store.end()) return false;
    *doc = it->second;
    return true;
  });
  c.add_point(synthetic_point(1));
  for (std::uint64_t h = 100; h < 164; ++h) c.add_point(synthetic_point(h));

  coord::ServerOptions sopt;
  sopt.address = "127.0.0.1:0";  // ephemeral port; bound_address() tells
  sopt.poll_ms = 10;
  coord::Server server(&c, sopt);
  ASSERT_NE(server.bound_address().find("127.0.0.1:"), std::string::npos);
  ASSERT_NE(server.bound_address(), "127.0.0.1:0");
  std::thread daemon([&] { server.run(); });

  {
    coord::Client client(server.bound_address());
    EXPECT_EQ(client.hello("tcp-tester").incarnation, 1u);

    // The protocol is transport-agnostic: the worker loop runs as-is.
    const auto grant = client.next("tcp-tester");
    ASSERT_TRUE(grant.granted) << grant.status;
    EXPECT_TRUE(client.done("tcp-tester", grant.lease_id, grant.point));

    // The acceptance criterion: a batch of 64 GETs costs exactly one
    // round trip, not 64.
    std::vector<std::uint64_t> hashes;
    for (std::uint64_t h = 100; h < 164; ++h) hashes.push_back(h);
    ASSERT_EQ(hashes.size(), coord::kMgetMaxHashes);
    const std::uint64_t before = client.round_trips();
    const auto replies = client.mget(hashes);
    EXPECT_EQ(client.round_trips() - before, 1u);
    ASSERT_EQ(replies.size(), hashes.size());
    for (std::size_t i = 0; i < replies.size(); ++i) {
      EXPECT_EQ(replies[i].status, "HIT");
      EXPECT_EQ(replies[i].doc, store.at(hashes[i]));
    }

    // One hash past the cap wraps to a second wire batch.
    hashes.push_back(1);
    const std::uint64_t before2 = client.round_trips();
    EXPECT_EQ(client.mget(hashes).size(), hashes.size());
    EXPECT_EQ(client.round_trips() - before2, 2u);

    client.shutdown();
  }
  daemon.join();
}

TEST(CoordServer, TcpRejectsGarbageAndOversizedFrames) {
  coord::Coordinator c({}, {});
  c.add_point(synthetic_point(1));
  coord::ServerOptions sopt;
  sopt.address = "127.0.0.1:0";
  sopt.poll_ms = 10;
  coord::Server server(&c, sopt);
  std::thread daemon([&] { server.run(); });

  // A garbage verb gets an ERR reply; the connection survives and the
  // next (valid) request still works.
  {
    const int fd = raw_connect(server.bound_address());
    const std::string req = "FROB nonsense\nSTATS\n";
    ASSERT_EQ(::write(fd, req.data(), req.size()),
              static_cast<ssize_t>(req.size()));
    std::string got;
    char buf[4096];
    while (got.find("\"points\"") == std::string::npos) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      ASSERT_GT(n, 0) << "connection died before STATS reply";
      got.append(buf, static_cast<std::size_t>(n));
    }
    EXPECT_EQ(got.rfind("ERR ", 0), 0u) << got.substr(0, 40);
    ::close(fd);
  }

  // A frame with no terminator growing past the line cap is a runaway,
  // not a request: the server closes the connection.
  {
    const int fd = raw_connect(server.bound_address());
    const std::string junk(256 * 1024, 'x');  // never a '\n'
    bool closed = false;
    for (int i = 0; i < 64 && !closed; ++i) {
      // MSG_NOSIGNAL: after the server closes, this write must come
      // back as an error, not a SIGPIPE.
      ssize_t n = ::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL);
      if (n < 0) closed = true;  // EPIPE/ECONNRESET after server close
    }
    if (!closed) closed = read_until_eof(fd).empty();
    EXPECT_TRUE(closed);
    ::close(fd);
  }

  // The server is still healthy for well-behaved clients.
  {
    coord::Client client(server.bound_address());
    EXPECT_NE(client.stats().find("\"points\""), std::string::npos);
    client.shutdown();
  }
  daemon.join();
}

TEST(CoordServer, SlowReaderIsBoundedWithoutStallingOthers) {
  // Every GET serves a 64KiB body against a 64KiB write-buffer cap: a
  // client that requests plenty and reads nothing must be closed, while
  // a normal client on the same loop keeps getting answers.
  std::map<std::uint64_t, std::string> store = {
      {9, std::string(64 * 1024, 'd') + "\n"}};
  coord::Coordinator c({}, [&store](std::uint64_t h, std::string* doc) {
    const auto it = store.find(h);
    if (it == store.end()) return false;
    *doc = it->second;
    return true;
  });
  c.add_point(synthetic_point(9));

  coord::ServerOptions sopt;
  sopt.address = "127.0.0.1:0";
  sopt.poll_ms = 10;
  sopt.max_write_buffer = 64 * 1024;
  coord::Server server(&c, sopt);
  std::thread daemon([&] { server.run(); });

  const int slow = raw_connect(server.bound_address());
  std::string burst;
  for (int i = 0; i < 64; ++i) burst += "GET " + coord::to_hex16(9) + "\n";
  // ~4MiB of replies owed against a 64KiB cap; the kernel socket
  // buffers absorb some, the server's wbuf bound must cut the rest.
  ASSERT_EQ(::send(slow, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  // While the slow reader sits there, a live client is still served.
  {
    coord::Client client(server.bound_address());
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(client.get(9).status, "HIT");
    }
  }

  // The slow connection was closed, not buffered without bound: what
  // the kernel already ferried drains, then EOF, well short of the
  // ~4MiB owed.  (A read timeout keeps a regression from hanging the
  // suite instead of failing it.)
  const timeval tv{2, 0};
  ::setsockopt(slow, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const std::size_t owed =
      64 * (store.at(9).size() + std::string("HIT 65537\n").size() + 1);
  const std::string drained = read_until_eof(slow);
  EXPECT_LT(drained.size(), owed);
  ::close(slow);

  {
    coord::Client admin(server.bound_address());
    admin.shutdown();
  }
  daemon.join();
}

}  // namespace

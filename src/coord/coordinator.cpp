#include "coord/coordinator.hpp"

#include "telemetry/json.hpp"

namespace kop::coord {

Coordinator::Coordinator(CoordinatorOptions opt, CacheProbe probe)
    : probe_(std::move(probe)), liveness_(opt.liveness) {}

void Coordinator::add_point(PointInfo info) {
  JournalRecord rec;
  rec.type = JournalRecord::Type::kRegister;
  rec.hash = info.hash;
  rec.entry = info.entry;
  rec.payload = info.payload;
  rec.label = info.label;
  if (table_.add_point(std::move(info))) {
    counters_.add("points_registered");
    if (journal_ != nullptr) journal_->append(rec);
  }
}

std::size_t Coordinator::sync_with_cache() {
  if (!probe_) return 0;
  std::size_t completed = 0;
  for (std::uint64_t hash : table_.point_hashes()) {
    if (table_.point_state(hash) == PointState::kComplete) continue;
    std::string doc;
    if (probe_(hash, &doc)) {
      complete_point(hash);
      counters_.add("points_warm_from_cache");
      ++completed;
    }
  }
  return completed;
}

void Coordinator::tick(std::int64_t now_ms) {
  for (const std::string& worker : liveness_.advance(now_ms)) {
    counters_.add("workers_died");
    const auto reclaimed = table_.reclaim_worker(worker);
    counters_.add("leases_reclaimed_dead", reclaimed.size());
    counters_.add("points_requeued", reclaimed.size());
  }
  // Group commit: one write+fsync per poll round covers every record
  // the round produced.  An unflushed R is re-sent by the point's
  // owner; an unflushed D re-runs one deterministic point -- both safe,
  // so durability can batch.
  if (journal_ != nullptr) journal_->commit();
}

void Coordinator::attach_journal(Journal* journal) { journal_ = journal; }

void Coordinator::complete_point(std::uint64_t hash) {
  if (table_.point_info(hash) == nullptr) return;
  if (table_.point_state(hash) == PointState::kComplete) return;
  table_.mark_complete(hash);
  if (journal_ != nullptr) {
    JournalRecord rec;
    rec.type = JournalRecord::Type::kDone;
    rec.hash = hash;
    journal_->append(rec);
  }
}

bool Coordinator::apply_record(const JournalRecord& rec) {
  switch (rec.type) {
    case JournalRecord::Type::kRegister: {
      PointInfo info;
      info.hash = rec.hash;
      info.entry = rec.entry;
      info.payload = rec.payload;
      info.label = rec.label;
      table_.add_point(std::move(info));
      return true;
    }
    case JournalRecord::Type::kDone:
      return table_.mark_complete(rec.hash);
  }
  return false;
}

bool Coordinator::recover_from_journal(const std::string& path,
                                       ReplayStats* stats,
                                       std::string* error) {
  std::size_t index = 0;
  std::size_t bad_index = 0;
  bool applied_ok = true;
  const bool read_ok = replay_journal(
      path,
      [&](const JournalRecord& rec) {
        ++index;
        if (applied_ok && !apply_record(rec)) {
          applied_ok = false;
          bad_index = index;
        }
      },
      stats, error);
  if (!read_ok) return false;
  if (!applied_ok) {
    if (error != nullptr) {
      *error = path + ": record " + std::to_string(bad_index) +
               " does not apply to the replayed table (journal out of "
               "sequence)";
    }
    return false;
  }
  counters_.add("journal_records_replayed", index);
  return true;
}

bool Coordinator::admit(const Request& r, std::int64_t now_ms,
                        std::string* reply) {
  switch (liveness_.heartbeat(r.worker, now_ms)) {
    case WorkerState::kUnknown:
      *reply = "NOHELLO";
      return false;
    case WorkerState::kDead:
      // This incarnation's leases were reclaimed when it was declared
      // dead; everything except DONE must restart with a fresh HELLO.
      *reply = "DEAD";
      return false;
    case WorkerState::kAlive:
    case WorkerState::kSuspect:
      return true;
  }
  return true;
}

std::string Coordinator::on_hello(const Request& r, std::int64_t now_ms) {
  const std::uint64_t incarnation = liveness_.hello(r.worker, now_ms);
  counters_.add("hellos");
  return "OK " + std::to_string(incarnation) +
         " suspect=" + std::to_string(liveness_.options().suspect_after_ms) +
         " dead=" + std::to_string(liveness_.options().dead_after_ms);
}

std::string Coordinator::on_next(const Request& r, std::int64_t now_ms) {
  std::string reply;
  if (!admit(r, now_ms, &reply)) return reply;
  Lease lease;
  switch (table_.grant_next(r.worker, &lease)) {
    case GrantOutcome::kGranted: {
      counters_.add("leases_granted");
      const PointInfo* info = table_.point_info(lease.point);
      const std::string payload =
          info != nullptr && !info->payload.empty() ? info->payload : "-";
      return "GRANT " + to_hex16(lease.point) + " " + to_hex16(lease.id) +
             " " + payload;
    }
    case GrantOutcome::kComplete:
      return "DRAINED";
    default:
      return "IDLE " + std::to_string(table_.queued()) + " " +
             std::to_string(table_.leased());
  }
}

std::string Coordinator::on_lease(const Request& r, std::int64_t now_ms) {
  std::string reply;
  if (!admit(r, now_ms, &reply)) return reply;
  if (table_.point_info(r.hash) == nullptr) {
    // Worker-enumerated sweep: the figure binary knows the matrix and
    // the coordinator only arbitrates, so LEASE registers the point.
    PointInfo info;
    info.hash = r.hash;
    info.entry = r.entry;
    add_point(std::move(info));
  }
  Lease lease;
  switch (table_.grant(r.hash, r.worker, &lease)) {
    case GrantOutcome::kGranted:
      counters_.add("leases_granted");
      return "GRANT " + to_hex16(r.hash) + " " + to_hex16(lease.id) + " -";
    case GrantOutcome::kTaken:
      counters_.add("lease_conflicts");
      return "TAKEN";
    case GrantOutcome::kComplete:
      return "COMPLETE";
    default:
      return "UNKNOWN";
  }
}

std::string Coordinator::on_done(const Request& r, std::int64_t now_ms) {
  // Deliberately no admit() gate: a Suspect or even Dead worker
  // reporting a finished point is still reporting the truth (the entry
  // is on disk, content-addressed).  Refresh liveness only if the
  // incarnation is not dead.
  liveness_.heartbeat(r.worker, now_ms);
  if (table_.point_info(r.hash) == nullptr) return "UNKNOWN";
  if (table_.point_state(r.hash) == PointState::kComplete) {
    counters_.add("completions_dup");
    return "DUP";
  }
  // OK only for the live lease on the named point.  Anything else -- a
  // lease reclaimed when its holder was declared dead (maybe
  // re-granted), or an id on another point -- resolves by point: an
  // incomplete point still gets its completion, since dropping a
  // finished, deterministic, content-addressed result would only force
  // a redundant re-run.
  const Lease* live = table_.lease_by_id(r.lease_id);
  const bool own_lease = live != nullptr && live->point == r.hash;
  complete_point(r.hash);
  counters_.add("completions");
  if (own_lease) return "OK";
  counters_.add("completions_stale_lease");
  return "OK-STALE";
}

std::string Coordinator::serve_one(std::uint64_t hash) {
  if (probe_) {
    std::string doc;
    if (probe_(hash, &doc)) {
      counters_.add("serve_cache_hits");
      // The probe hit is also ground truth for dispatch bookkeeping.
      complete_point(hash);
      return "HIT " + std::to_string(doc.size()) + "\n" + doc;
    }
  }
  counters_.add("serve_cache_misses");
  if (table_.point_info(hash) == nullptr) {
    counters_.add("serve_unknown");
    return "UNKNOWN";
  }
  const PointState state = table_.point_state(hash);
  // Complete but not servable from here (no cache attached, or the
  // entry lives in a worker cache this daemon cannot see): distinct from
  // PENDING so a prefetching client does not wait on it.
  if (state == PointState::kComplete) return "COMPLETE";
  return std::string("PENDING ") +
         (state == PointState::kLeased ? "leased" : "queued");
}

std::string Coordinator::on_get(const Request& r, std::int64_t now_ms) {
  (void)now_ms;
  return serve_one(r.hash);
}

std::string Coordinator::on_mget(const Request& r, std::int64_t now_ms) {
  (void)now_ms;
  counters_.add("serve_mget_batches");
  counters_.add("serve_mget_hashes", r.hashes.size());
  // One sub-response per hash, '\n'-separated; each framed exactly like
  // a GET response so the client reads header / optional body / next.
  std::string out;
  for (std::size_t i = 0; i < r.hashes.size(); ++i) {
    if (i != 0) out += '\n';
    out += serve_one(r.hashes[i]);
  }
  return out;
}

std::string Coordinator::handle_line(const std::string& line,
                                     std::int64_t now_ms) {
  const Request r = parse_request(line);
  counters_.add("requests");
  switch (r.verb) {
    case Request::Verb::kHello:
      return on_hello(r, now_ms);
    case Request::Verb::kNext:
      return on_next(r, now_ms);
    case Request::Verb::kLease:
      return on_lease(r, now_ms);
    case Request::Verb::kDone:
      return on_done(r, now_ms);
    case Request::Verb::kPing: {
      std::string reply;
      if (!admit(r, now_ms, &reply)) return reply;
      return std::string("OK ") + worker_state_name(liveness_.state(r.worker));
    }
    case Request::Verb::kBye: {
      liveness_.heartbeat(r.worker, now_ms);
      const auto reclaimed = table_.reclaim_worker(r.worker);
      counters_.add("leases_released_bye", reclaimed.size());
      counters_.add("points_requeued", reclaimed.size());
      return "OK";
    }
    case Request::Verb::kGet:
      return on_get(r, now_ms);
    case Request::Verb::kMget:
      return on_mget(r, now_ms);
    case Request::Verb::kStats:
      return stats_json();
    case Request::Verb::kShutdown:
      shutdown_ = true;
      return "OK";
    case Request::Verb::kInvalid:
      break;
  }
  counters_.add("requests_invalid");
  return "ERR " + r.error;
}

std::string Coordinator::stats_json() const {
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("tool").value("kop_sweepd");
  w.key("proto").value(kProtoVersion);
  w.key("points").begin_object();
  w.key("total").value(static_cast<std::uint64_t>(table_.total()));
  w.key("queued").value(static_cast<std::uint64_t>(table_.queued()));
  w.key("leased").value(static_cast<std::uint64_t>(table_.leased()));
  w.key("complete").value(static_cast<std::uint64_t>(table_.complete()));
  w.end_object();
  w.key("workers").begin_array();
  for (const auto& info : liveness_.snapshot()) {
    w.begin_object();
    w.key("name").value(info.name);
    w.key("state").value(worker_state_name(info.state));
    w.key("incarnation").value(info.incarnation);
    w.key("suspects").value(info.suspects);
    w.key("recoveries").value(info.recoveries);
    w.end_object();
  }
  w.end_array();
  w.key("counters").begin_object();
  for (const auto& [name, count] : counters_.items()) {
    w.key(name).value(count);
  }
  w.end_object();
  w.key("drained").value(drained());
  w.end_object();
  return w.str();
}

}  // namespace kop::coord

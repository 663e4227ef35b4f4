#include "coord/coordinator.hpp"

#include "telemetry/json.hpp"

namespace kop::coord {

Coordinator::Coordinator(CoordinatorOptions opt, CacheProbe probe)
    : opt_(opt),
      probe_(std::move(probe)),
      table_(opt.lease_ttl_ms),
      liveness_(opt.liveness) {}

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
    journal_reclaims(reclaimed);
  }
  const auto expired = table_.reclaim_expired(now_ms);
  counters_.add("leases_expired", expired.size());
  counters_.add("points_requeued", expired.size());
  journal_reclaims(expired);
  if (journal_ != nullptr) {
    // Group commit: one write+fsync per poll round covers every record
    // the round produced.  An unflushed GRANT replays as still-queued
    // (the eventual DONE resolves OK-STALE); an unflushed DONE re-runs
    // one deterministic point -- both safe, so durability can batch.
    if (journal_->appended_since_compact() >= opt_.journal_compact_after) {
      journal_->compact(snapshot_records());
      counters_.add("journal_compactions");
    } else {
      journal_->commit();
    }
  }
}

void Coordinator::attach_journal(Journal* journal) { journal_ = journal; }

void Coordinator::journal_grant(const Lease& lease) {
  if (journal_ == nullptr) return;
  JournalRecord rec;
  rec.type = JournalRecord::Type::kGrant;
  rec.lease_id = lease.id;
  rec.hash = lease.point;
  rec.worker = lease.worker;
  rec.expires_ms = lease.expires_ms;
  journal_->append(rec);
}

void Coordinator::journal_done(std::uint64_t hash) {
  if (journal_ == nullptr) return;
  JournalRecord rec;
  rec.type = JournalRecord::Type::kDone;
  rec.hash = hash;
  journal_->append(rec);
}

void Coordinator::journal_reclaims(const std::vector<std::uint64_t>& hashes) {
  if (journal_ == nullptr) return;
  for (std::uint64_t hash : hashes) {
    JournalRecord rec;
    rec.type = JournalRecord::Type::kReclaim;
    rec.hash = hash;
    journal_->append(rec);
  }
}

void Coordinator::complete_point(std::uint64_t hash) {
  if (table_.point_info(hash) == nullptr) return;
  if (table_.point_state(hash) == PointState::kComplete) return;
  table_.mark_complete(hash);
  journal_done(hash);
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
    case JournalRecord::Type::kGrant:
      return table_.restore_grant(rec.lease_id, rec.hash, rec.worker,
                                  rec.expires_ms);
    case JournalRecord::Type::kRenew:
      return table_.restore_renew(rec.lease_id, rec.expires_ms);
    case JournalRecord::Type::kDone:
      return table_.mark_complete(rec.hash);
    case JournalRecord::Type::kReclaim:
      return table_.reclaim_point(rec.hash);
    case JournalRecord::Type::kSeq:
      table_.restore_next_lease_id(rec.lease_id);
      return true;
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

std::size_t Coordinator::requeue_live_leases() {
  const auto requeued = table_.reclaim_all();
  counters_.add("journal_leases_requeued", requeued.size());
  counters_.add("points_requeued", requeued.size());
  journal_reclaims(requeued);
  if (journal_ != nullptr) journal_->commit();
  return requeued.size();
}

std::vector<JournalRecord> Coordinator::snapshot_records() const {
  std::vector<JournalRecord> out;
  JournalRecord seq;
  seq.type = JournalRecord::Type::kSeq;
  seq.lease_id = table_.next_lease_id();
  out.push_back(seq);
  auto push_register = [&](std::uint64_t hash) {
    const PointInfo* info = table_.point_info(hash);
    JournalRecord rec;
    rec.type = JournalRecord::Type::kRegister;
    rec.hash = hash;
    rec.entry = info->entry;
    rec.payload = info->payload;
    rec.label = info->label;
    out.push_back(rec);
  };
  // R records replay back into queue insertions, so queued points go
  // first *in queue order*; leased/complete points follow and are
  // removed from the replayed queue by their G/D records.
  for (std::uint64_t hash : table_.queued_hashes()) push_register(hash);
  for (std::uint64_t hash : table_.point_hashes()) {
    if (table_.point_state(hash) != PointState::kQueued) push_register(hash);
  }
  for (const Lease& lease : table_.live_leases()) {
    JournalRecord rec;
    rec.type = JournalRecord::Type::kGrant;
    rec.lease_id = lease.id;
    rec.hash = lease.point;
    rec.worker = lease.worker;
    rec.expires_ms = lease.expires_ms;
    out.push_back(rec);
  }
  for (std::uint64_t hash : table_.point_hashes()) {
    if (table_.point_state(hash) == PointState::kComplete) {
      JournalRecord rec;
      rec.type = JournalRecord::Type::kDone;
      rec.hash = hash;
      out.push_back(rec);
    }
  }
  return out;
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
         " ttl=" + std::to_string(table_.ttl_ms()) +
         " suspect=" + std::to_string(liveness_.options().suspect_after_ms) +
         " dead=" + std::to_string(liveness_.options().dead_after_ms);
}

std::string Coordinator::on_next(const Request& r, std::int64_t now_ms) {
  std::string reply;
  if (!admit(r, now_ms, &reply)) return reply;
  Lease lease;
  switch (table_.grant_next(r.worker, now_ms, &lease)) {
    case GrantOutcome::kGranted: {
      counters_.add("leases_granted");
      journal_grant(lease);
      const PointInfo* info = table_.point_info(lease.point);
      const std::string payload =
          info != nullptr && !info->payload.empty() ? info->payload : "-";
      return "GRANT " + to_hex16(lease.point) + " " + to_hex16(lease.id) +
             " " + std::to_string(table_.ttl_ms()) + " " + payload;
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
    if (!opt_.accept_unknown_points) return "UNKNOWN";
    PointInfo info;
    info.hash = r.hash;
    info.entry = r.entry;
    add_point(std::move(info));
  }
  Lease lease;
  switch (table_.grant(r.hash, r.worker, now_ms, &lease)) {
    case GrantOutcome::kGranted:
      counters_.add("leases_granted");
      journal_grant(lease);
      return "GRANT " + to_hex16(r.hash) + " " + to_hex16(lease.id) + " " +
             std::to_string(table_.ttl_ms()) + " -";
    case GrantOutcome::kTaken:
      counters_.add("lease_conflicts");
      return "TAKEN";
    case GrantOutcome::kComplete:
      return "COMPLETE";
    default:
      return "UNKNOWN";
  }
}

std::string Coordinator::on_renew(const Request& r, std::int64_t now_ms) {
  std::string reply;
  if (!admit(r, now_ms, &reply)) return reply;
  switch (table_.renew(r.lease_id, now_ms)) {
    case RenewOutcome::kOk: {
      counters_.add("leases_renewed");
      if (journal_ != nullptr) {
        JournalRecord rec;
        rec.type = JournalRecord::Type::kRenew;
        rec.lease_id = r.lease_id;
        rec.expires_ms = now_ms + table_.ttl_ms();
        journal_->append(rec);
      }
      return "OK " + std::to_string(table_.ttl_ms());
    }
    case RenewOutcome::kExpired:
      counters_.add("renewals_lost");
      return "EXPIRED";
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
  // The journal records completion by *point*; grab the lease's
  // authoritative point hash before complete() erases the lease.
  const Lease* live = table_.lease_by_id(r.lease_id);
  const std::uint64_t lease_point = live != nullptr ? live->point : 0;
  switch (table_.complete(r.lease_id)) {
    case CompleteOutcome::kOk:
      counters_.add("completions");
      journal_done(lease_point);
      return "OK";
    case CompleteOutcome::kUnknown:
      return "UNKNOWN";
    default:
      break;
  }
  // The lease is gone (expired + reclaimed, maybe re-granted).  Resolve
  // by point: an incomplete point still gets its completion -- dropping
  // a finished, deterministic, content-addressed result would only
  // force a redundant re-run by whoever holds the re-granted lease.
  if (table_.point_info(r.hash) == nullptr) return "UNKNOWN";
  if (table_.point_state(r.hash) == PointState::kComplete) {
    counters_.add("completions_dup");
    return "DUP";
  }
  complete_point(r.hash);
  counters_.add("completions");
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
    case Request::Verb::kRenew:
      return on_renew(r, now_ms);
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
      journal_reclaims(reclaimed);
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

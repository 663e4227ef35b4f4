// Append-only queue journal: the coordinator's crash ledger.
//
// Without a journal a restarted daemon recovers *completed* points only
// (whatever sync_with_cache finds on disk), and a worker-enumerated
// sweep forgets every point a figure binary registered.  The journal
// records exactly what survives a restart: which points exist, and
// which of them are complete.  Leases do not survive -- every worker
// session ends with the daemon process that granted it -- so a
// restarted daemon replays the file into its restart table directly:
// every registered point, the completed ones complete, the rest queued
// in registration order.
//
// Record grammar (one record per '\n'-terminated line):
//
//   R <hash> <entry> <payload> <label> !<fnv16>     point registered
//   D <hash> !<fnv16>                               point complete
//
// A point is registered once and completed once, so a file holds at
// most two records per point and never needs compacting.
//
// String fields are percent-escaped (space, '%', '!', control bytes) so
// every record stays one space-tokenized line.  The checksum is FNV-1a
// 64 over the record body; `--dump-journal --verify` and replay both
// recompute it.
//
// Durability model: append() buffers, commit() writes + fsyncs the
// batch.  The Coordinator commits from tick(), i.e. once per poll
// round, not per request -- group commit.  That is safe because every
// record is *re-derivable loss*: an unflushed R record is re-sent by
// whoever owns the point (the manifest, or the figure binary's LEASE),
// and an unflushed D record re-runs one deterministic,
// content-addressed point.
//
// Torn tails: a crash mid-append leaves a final line without '\n' (or a
// short one).  Replay tolerates exactly that -- trailing bytes with no
// terminator are dropped and reported -- but a *terminated* record with
// a bad checksum or unknown shape is a hard error: that is corruption,
// not a crash artifact, and silently skipping it could resurrect a
// wrong point set.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace kop::coord {

struct JournalRecord {
  enum class Type { kRegister, kDone };
  Type type = Type::kRegister;
  std::uint64_t hash = 0;
  std::string entry;    // R
  std::string payload;  // R
  std::string label;    // R
};

/// One record as a journal line (no trailing '\n'), checksum included.
std::string encode_record(const JournalRecord& rec);

/// Parse one journal line.  False (with *error set) on checksum
/// mismatch, unknown type, or a malformed field.
bool decode_record(const std::string& line, JournalRecord* out,
                   std::string* error);

struct ReplayStats {
  std::size_t records = 0;          // checksum-verified records replayed
  std::size_t truncated_bytes = 0;  // torn tail dropped (crash artifact)
};

/// Read `path` and invoke `fn` per verified record, in file order.  A
/// missing file is an empty journal (true, zero records).  Returns
/// false (with *error naming the line) on corruption; records before
/// the corrupt line have already been delivered.
bool replay_journal(const std::string& path,
                    const std::function<void(const JournalRecord&)>& fn,
                    ReplayStats* stats, std::string* error);

class Journal {
 public:
  /// Opens `path` for append (created if absent).  Throws
  /// std::runtime_error when the file cannot be opened.
  explicit Journal(std::string path);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Buffer one record.  Cheap; durability comes from commit().
  void append(const JournalRecord& rec);

  /// Flush buffered records and fsync.  No-op when nothing is pending.
  /// Throws std::runtime_error on write/fsync failure (a daemon whose
  /// journal cannot persist must not keep accepting work it would
  /// forget).
  void commit();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::string pending_;
};

}  // namespace kop::coord

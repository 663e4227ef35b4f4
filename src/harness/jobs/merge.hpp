// Merging worker caches into one result cache, and the coverage
// manifest that says which entries a complete sweep holds.
//
// Entries are self-contained kop-metrics v1 documents, so merging is
// file copy plus verification.  Every candidate entry must
//
//   1. validate against the kop-metrics v1 schema,
//   2. carry the x_kop_cache sidecar (point canonical form +
//      cost-model fingerprint),
//   3. match this build's cost-model fingerprint and schema version
//      (entries from a different calibration would silently never be
//      hit -- or worse, be trusted by fingerprint-agnostic readers),
//   4. sit under the filename its recorded identity hashes to (a
//      renamed or stale file is indistinguishable from corruption).
//
// Two sources providing the same entry name is fine when the bytes
// agree (workers may overlap); divergent bytes mean two simulations of
// "the same" point disagreed and the merge refuses to pick a winner.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/jobs/point.hpp"

namespace kop::harness::jobs {

struct MergeOptions {
  /// Worker cache directories, scanned in order.
  std::vector<std::string> sources;
  /// Destination cache directory (created if needed).  May already
  /// contain entries; they participate in duplicate detection.
  std::string dest;
  /// Optional coverage manifest (manifest_text) whose `entry=` column
  /// names every cache file the full sweep needs.
  std::string expect_path;
};

struct MergeIssue {
  std::string file;    // source path of the offending entry
  std::string reason;  // human-readable
};

struct MergeReport {
  std::uint64_t scanned = 0;               // candidate entries seen
  std::uint64_t merged = 0;                // entries copied into dest
  std::uint64_t identical_duplicates = 0;  // same name, same bytes
  std::vector<MergeIssue> rejected;        // schema/fingerprint/key
  std::vector<MergeIssue> divergent;       // same name, different bytes
  std::size_t expected = 0;                // manifest size (0 = none)
  std::vector<std::string> missing;        // expected entries not merged

  bool ok() const {
    return rejected.empty() && divergent.empty() && missing.empty();
  }
  /// Human report (what kop_merge prints).
  std::string text() const;
  /// Machine-readable report for CI gating.
  std::string json() const;
};

/// The coverage manifest of a sweep (what kop_sweepd --manifest
/// writes): a `#`-comment header carrying the point count, cost-model
/// fingerprint and schema version, then one line per point:
///
///   1/1 point=<content-hash> entry=kop-<cache-key>.json <label>
///
/// The `entry=` column names the cache file each point occupies;
/// merge_caches reads it back for MergeOptions::expect_path.  The `1/1`
/// column and the header's `shards=1` are constant; they keep the
/// format of manifests already on disk.
std::string manifest_text(const std::vector<PointSpec>& points);

/// Union the source caches into dest.  Throws std::runtime_error only
/// for setup-level failures (unreadable source directory, uncreatable
/// dest, unreadable manifest); per-entry problems land in the report.
MergeReport merge_caches(const MergeOptions& opts);

/// Order-independent digest of a cache directory's contents: FNV-1a
/// folded over every entry name and its bytes, in sorted-name order.
/// Two sweeps produced the same results iff their digests match -- the
/// determinism check CI runs between a crash-reclaimed multi-worker
/// sweep and a single-worker reference run.
std::uint64_t cache_digest(const std::string& dir);

}  // namespace kop::harness::jobs

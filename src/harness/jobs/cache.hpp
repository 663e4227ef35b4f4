// On-disk content-addressed result cache for experiment points.
//
// Each entry is a self-contained kop-metrics v1 JSON document (one run,
// validated by telemetry::validate_metrics_json, so `metrics_lint
// cache-dir/*.json` passes) plus an `x_kop_cache` sidecar object
// carrying the point's canonical form and, for EPCC points, the raw
// per-construct sample vectors (needed to reprint mean +- sd tables
// byte-identically).  The entry filename is derived from
//
//     key = fnv1a64(canonical point (+) cost-model fingerprint
//                   (+) kop-metrics schema version)
//
// so a rerun hits only while the workload, every cost-model constant,
// and the artifact schema are all unchanged.  Corrupted or stale
// entries count as misses (the point is simply re-simulated).
//
// This file is the one owner of the entry format: the entry name, the
// identity an entry records about itself, and how an entry file is
// read.  kop_merge, kop_baseline's CacheIndex and metrics_lint go
// through it rather than knowing the format themselves.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "harness/jobs/point.hpp"
#include "telemetry/json.hpp"

namespace kop::harness::jobs {

class ResultCache {
 public:
  /// Opens (and creates, if needed) the cache directory.  Throws
  /// std::runtime_error if the directory cannot be created.
  explicit ResultCache(std::string dir);

  /// Cache key: content hash x cost-model fingerprint x schema version.
  /// The fingerprint/version parameters exist for tests; production
  /// callers use the defaults.
  static std::uint64_t key(const PointSpec& spec,
                           std::uint64_t fingerprint = cost_model_fingerprint(),
                           int schema_version = -1 /* kMetricsSchemaVersion */);

  /// The same key from an already-serialized canonical form -- what
  /// kop_merge uses to re-derive an entry's expected filename from the
  /// identity recorded in its x_kop_cache sidecar.
  static std::uint64_t key_for(const std::string& canonical,
                               std::uint64_t fingerprint, int schema_version);

  /// The file name of the entry under `key`: kop-<16 hex digits>.json.
  static std::string entry_name(std::uint64_t key);
  /// Whether `name` has entry_name()'s shape (kop-, 16 characters,
  /// .json) -- the files kop_merge merges and digests.
  static bool is_entry_name(const std::string& name);
  /// Whether a file named `name` may hold an entry document: any
  /// kop-*.json, which also takes the kop-point-<hash>.json copies that
  /// `kop_client --get-file --out-dir` writes.
  static bool may_hold_entry(const std::string& name);

  /// Path of the entry file a spec maps to.
  std::string entry_path(const PointSpec& spec) const;

  /// Load a cached result.  Returns false on miss, on a corrupted or
  /// schema-invalid entry, and on a canonical-form mismatch (hash
  /// collision or stale file) -- never throws for bad entries.
  bool load(const PointSpec& spec, PointResult* out);

  /// Store a successful result through publish_file(), so a crashed
  /// writer never leaves a torn entry.
  void store(const PointSpec& spec, const PointResult& result);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t corrupt = 0;  // subset of misses: entry existed, unusable
    std::uint64_t stores = 0;
  };
  Stats stats() const;
  const std::string& dir() const { return dir_; }

  /// Serialize one result as the entry document (exposed for tests).
  static std::string encode(const PointSpec& spec, const PointResult& result);
  /// Parse an entry document; returns false if invalid or not for
  /// `spec`.  Never throws on malformed input.
  /// With `require_fingerprint` (the cache's own loads), the sidecar
  /// fingerprint must equal the live cost_model_fingerprint() -- a file
  /// renamed to the right key but recorded under different calibration
  /// is stale, not a hit.  Fingerprint-agnostic readers (baseline's
  /// CacheIndex, which indexes entries across calibrations) pass false.
  static bool decode(const std::string& text, const PointSpec& spec,
                     PointResult* out, bool require_fingerprint = true);

  /// What an entry document records about itself: the x_kop_cache
  /// sidecar's canonical point and cost-model fingerprint, and the
  /// document's schema version.  The pointers refer into the parsed
  /// document and are null where a field is absent or not a string.
  struct Identity {
    const telemetry::JsonValue* sidecar = nullptr;  // the x_kop_cache object
    const std::string* point = nullptr;             // canonical form
    const std::string* fingerprint = nullptr;       // 16 hex digits
    int schema_version = -1;                        // root "version"
  };
  static Identity identity(const telemetry::JsonValue& root);

 private:
  std::string dir_;
  mutable std::mutex mu_;
  Stats stats_;
};

/// Writes `bytes` to `path` so that a reader of `path` sees the old file
/// (or none) or all of the new bytes, never a prefix.  A new name is
/// linked to a complete unnamed file (O_TMPFILE); replacing an existing
/// file goes through `path`.tmp and a rename, and a crash there can
/// leave that *.tmp behind.  Returns false if the file was not written.
bool publish_file(const std::string& path, const std::string& bytes);

/// Reads the whole of `path` into *out.  False if it cannot be opened.
bool read_file(const std::string& path, std::string* out);

}  // namespace kop::harness::jobs

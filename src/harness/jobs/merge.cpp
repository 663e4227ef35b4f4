#include "harness/jobs/merge.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "harness/jobs/cache.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace kop::harness::jobs {

namespace {

namespace fs = std::filesystem;

/// The entry files in `dir`, in sorted-name order so that reports and
/// digests do not depend on the host's directory order.
std::vector<std::string> entry_names(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) {
    std::string name = e.path().filename().string();
    if (e.is_regular_file() && ResultCache::is_entry_name(name)) {
      names.push_back(std::move(name));
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Validate one candidate entry and derive the filename its recorded
/// identity hashes to.  Returns false with *reason set on any problem.
bool check_entry(const std::string& name, const std::string& text,
                 std::uint64_t build_fp, std::string* reason) {
  const auto violations = telemetry::validate_metrics_json(text);
  if (!violations.empty()) {
    *reason = "schema: " + violations.front();
    return false;
  }
  telemetry::JsonValue root;
  try {
    root = telemetry::parse_json(text);
  } catch (const telemetry::JsonParseError& e) {
    *reason = std::string("parse: ") + e.what();
    return false;
  }
  const ResultCache::Identity id = ResultCache::identity(root);
  if (id.sidecar == nullptr) {
    *reason = "not a cache entry (no x_kop_cache sidecar)";
    return false;
  }
  if (id.point == nullptr || id.fingerprint == nullptr) {
    *reason = "x_kop_cache sidecar missing point/fingerprint";
    return false;
  }
  const std::uint64_t entry_fp =
      std::strtoull(id.fingerprint->c_str(), nullptr, 16);
  if (entry_fp != build_fp) {
    *reason = "cost-model fingerprint mismatch (entry " + *id.fingerprint +
              ", build " + hex16(build_fp) + ")";
    return false;
  }
  const std::string want = ResultCache::entry_name(
      ResultCache::key_for(*id.point, entry_fp, id.schema_version));
  if (want != name) {
    *reason = "entry name does not match its recorded identity (expected " +
              want + "; stale or renamed file)";
    return false;
  }
  return true;
}

}  // namespace

std::string manifest_text(const std::vector<PointSpec>& points) {
  std::string out = "# kop-shard-list v1 points=" +
                    std::to_string(points.size()) +
                    " shards=1 fingerprint=" + hex16(cost_model_fingerprint()) +
                    " schema=" + std::to_string(telemetry::kMetricsSchemaVersion) +
                    "\n";
  for (const auto& p : points) {
    out += "1/1 point=" + hex16(p.content_hash());
    out += " entry=" + ResultCache::entry_name(ResultCache::key(p));
    out += " " + p.label() + "\n";
  }
  return out;
}

std::string MergeReport::text() const {
  std::string out;
  out += "scanned " + std::to_string(scanned) + " entries, merged " +
         std::to_string(merged);
  if (identical_duplicates > 0) {
    out += ", " + std::to_string(identical_duplicates) +
           " identical duplicates skipped";
  }
  out += "\n";
  if (!rejected.empty()) {
    out += "rejected " + std::to_string(rejected.size()) + " entries:\n";
    for (const auto& r : rejected) out += "  " + r.file + ": " + r.reason + "\n";
  }
  if (!divergent.empty()) {
    out += "DIVERGENT duplicates (same entry, different results):\n";
    for (const auto& d : divergent) out += "  " + d.file + ": " + d.reason + "\n";
  }
  if (expected > 0) {
    out += "coverage: " + std::to_string(expected - missing.size()) + "/" +
           std::to_string(expected) + " expected entries present\n";
    for (const auto& m : missing) out += "  missing: " + m + "\n";
  }
  out += ok() ? "merge OK\n" : "merge FAILED\n";
  return out;
}

std::string MergeReport::json() const {
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("tool").value("kop_merge");
  w.key("ok").value(ok());
  w.key("scanned").value(scanned);
  w.key("merged").value(merged);
  w.key("identical_duplicates").value(identical_duplicates);
  w.key("rejected").begin_array();
  for (const auto& r : rejected) {
    w.begin_object();
    w.key("file").value(r.file);
    w.key("reason").value(r.reason);
    w.end_object();
  }
  w.end_array();
  w.key("divergent").begin_array();
  for (const auto& d : divergent) {
    w.begin_object();
    w.key("file").value(d.file);
    w.key("reason").value(d.reason);
    w.end_object();
  }
  w.end_array();
  w.key("expected").value(static_cast<std::uint64_t>(expected));
  w.key("missing").begin_array();
  for (const auto& m : missing) w.value(m);
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

MergeReport merge_caches(const MergeOptions& opts) {
  MergeReport report;
  const std::uint64_t build_fp = cost_model_fingerprint();

  std::error_code ec;
  fs::create_directories(opts.dest, ec);
  if (ec && !fs::is_directory(opts.dest)) {
    throw std::runtime_error("cannot create merge destination " + opts.dest +
                             ": " + ec.message());
  }

  for (const auto& src : opts.sources) {
    if (!fs::is_directory(src)) {
      throw std::runtime_error("source is not a directory: " + src);
    }
    for (const auto& name : entry_names(src)) {
      const std::string path = src + "/" + name;
      ++report.scanned;
      std::string text;
      if (!read_file(path, &text)) {
        report.rejected.push_back({path, "cannot read"});
        continue;
      }
      std::string reason;
      if (!check_entry(name, text, build_fp, &reason)) {
        report.rejected.push_back({path, reason});
        continue;
      }
      const std::string dest_path = opts.dest + "/" + name;
      std::string existing;
      if (read_file(dest_path, &existing)) {
        if (existing == text) {
          ++report.identical_duplicates;
        } else {
          report.divergent.push_back(
              {path, "conflicts with already-merged " + dest_path});
        }
        continue;
      }
      if (!publish_file(dest_path, text)) {
        throw std::runtime_error("cannot write " + dest_path);
      }
      ++report.merged;
    }
  }

  if (!opts.expect_path.empty()) {
    std::string manifest;
    if (!read_file(opts.expect_path, &manifest)) {
      throw std::runtime_error("cannot read manifest " + opts.expect_path);
    }
    // The manifest is a manifest_text() capture: take every `entry=`
    // token (other lines -- headers, comments -- are ignored).
    std::vector<std::string> expected;
    std::istringstream lines(manifest);
    std::string line;
    while (std::getline(lines, line)) {
      std::istringstream tokens(line);
      std::string tok;
      while (tokens >> tok) {
        if (tok.rfind("entry=", 0) == 0 &&
            ResultCache::is_entry_name(tok.substr(6))) {
          expected.push_back(tok.substr(6));
        }
      }
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    report.expected = expected.size();
    for (const auto& name : expected) {
      if (!fs::exists(opts.dest + "/" + name)) report.missing.push_back(name);
    }
  }
  return report;
}

std::uint64_t cache_digest(const std::string& dir) {
  if (!fs::is_directory(dir)) {
    throw std::runtime_error("cache dir is not a directory: " + dir);
  }
  std::string fold;
  for (const auto& name : entry_names(dir)) {
    std::string text;
    if (!read_file(dir + "/" + name, &text)) {
      throw std::runtime_error("cannot read " + dir + "/" + name);
    }
    fold += name + "\n" + hex16(fnv1a64(text)) + "\n";
  }
  return fnv1a64(fold);
}

}  // namespace kop::harness::jobs

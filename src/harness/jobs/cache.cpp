#include "harness/jobs/cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace kop::harness::jobs {

namespace {

bool write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

// Writes `bytes` into an unnamed file in `dir` and links it in at
// `path` once complete.  False when the file system has no O_TMPFILE,
// /proc is not mounted, or `path` already exists (linkat never
// replaces); nothing is left behind either way.
bool link_unnamed(const std::string& dir, const std::string& path,
                  const std::string& bytes) {
  const int fd = ::open(dir.c_str(), O_TMPFILE | O_WRONLY | O_CLOEXEC, 0666);
  if (fd < 0) return false;
  char self[32];
  std::snprintf(self, sizeof(self), "/proc/self/fd/%d", fd);
  const bool linked = write_all(fd, bytes) &&
                      ::linkat(AT_FDCWD, self, AT_FDCWD, path.c_str(),
                               AT_SYMLINK_FOLLOW) == 0;
  ::close(fd);
  return linked;
}

}  // namespace

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool publish_file(const std::string& path, const std::string& bytes) {
  // One new directory entry per file, where a named temporary plus a
  // rename makes two: under the create/unlink churn of back-to-back
  // empty-cache sweeps the pair cost ext4 up to 2.7x as much per file.
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  if (link_unnamed(dir, path, bytes)) return true;
  // Replacing an existing file, or no O_TMPFILE: temporary + rename.
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return false;
  const bool written = write_all(fd, bytes);
  const bool closed = ::close(fd) == 0;
  if (written && closed && std::rename(tmp.c_str(), path.c_str()) == 0) {
    return true;
  }
  std::remove(tmp.c_str());
  return false;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec && !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("cannot create cache directory " + dir_ + ": " +
                             ec.message());
  }
}

std::uint64_t ResultCache::key(const PointSpec& spec, std::uint64_t fingerprint,
                               int schema_version) {
  return key_for(spec.canonical(), fingerprint, schema_version);
}

std::uint64_t ResultCache::key_for(const std::string& canonical,
                                   std::uint64_t fingerprint,
                                   int schema_version) {
  if (schema_version < 0) schema_version = telemetry::kMetricsSchemaVersion;
  std::string s = canonical;
  s += "|fp=" + hex16(fingerprint);
  s += "|schema=" + std::to_string(schema_version);
  return fnv1a64(s);
}

std::string ResultCache::entry_name(std::uint64_t key) {
  return "kop-" + hex16(key) + ".json";
}

bool ResultCache::is_entry_name(const std::string& name) {
  return name.size() == 4 + 16 + 5 && may_hold_entry(name);
}

bool ResultCache::may_hold_entry(const std::string& name) {
  return name.size() >= 4 + 5 && name.rfind("kop-", 0) == 0 &&
         name.compare(name.size() - 5, 5, ".json") == 0;
}

std::string ResultCache::entry_path(const PointSpec& spec) const {
  return dir_ + "/" + entry_name(key(spec));
}

std::string ResultCache::encode(const PointSpec& spec,
                                const PointResult& result) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("schema").value(telemetry::kMetricsSchemaName);
  w.key("version").value(telemetry::kMetricsSchemaVersion);
  w.key("generator").value("kop-result-cache");
  w.key("runs").begin_array();
  write_run_json(w, result.metrics);
  w.end_array();
  // Sidecar (top-level keys beyond the schema's are tolerated by the
  // validator): identity for collision/staleness detection plus the
  // raw EPCC samples the metrics run does not carry.
  w.key("x_kop_cache").begin_object();
  w.key("point").value(spec.canonical());
  w.key("fingerprint").value(hex16(cost_model_fingerprint()));
  if (!result.epcc.empty()) {
    w.key("epcc").begin_array();
    for (const auto& m : result.epcc) {
      w.begin_object();
      w.key("group").value(m.group);
      w.key("name").value(m.name);
      w.key("reference").value(m.reference);
      w.key("samples").begin_array();
      for (double s : m.overhead_us.samples()) w.value(s);
      w.end_array();
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

bool ResultCache::decode(const std::string& text, const PointSpec& spec,
                         PointResult* out, bool require_fingerprint) {
  // A cached entry must itself be a valid kop-metrics v1 artifact.
  if (!telemetry::validate_metrics_json(text).empty()) return false;
  telemetry::JsonValue root;
  try {
    root = telemetry::parse_json(text);
  } catch (const telemetry::JsonParseError&) {
    return false;
  }
  const Identity id = identity(root);
  if (id.point == nullptr || *id.point != spec.canonical()) {
    return false;  // hash collision or stale file: treat as a miss
  }
  if (require_fingerprint &&
      (id.fingerprint == nullptr ||
       *id.fingerprint != hex16(cost_model_fingerprint()))) {
    return false;  // recorded under different calibration: stale
  }
  const telemetry::JsonValue* runs = root.find("runs");
  if (runs == nullptr || runs->array.size() != 1) return false;

  PointResult result;
  if (!parse_run_json(runs->array[0], &result.metrics)) return false;
  if (const telemetry::JsonValue* epcc = id.sidecar->find("epcc")) {
    if (!epcc->is_array()) return false;
    for (const auto& e : epcc->array) {
      const auto* group = e.find("group");
      const auto* name = e.find("name");
      const auto* reference = e.find("reference");
      const auto* samples = e.find("samples");
      if (group == nullptr || !group->is_string() || name == nullptr ||
          !name->is_string() || samples == nullptr || !samples->is_array()) {
        return false;
      }
      epcc::Measurement m;
      m.group = group->string;
      m.name = name->string;
      m.reference = reference != nullptr && reference->boolean;
      for (const auto& s : samples->array) {
        if (!s.is_number()) return false;
        m.overhead_us.add(s.number);
      }
      result.epcc.push_back(std::move(m));
    }
  }
  result.from_cache = true;
  *out = std::move(result);
  return true;
}

ResultCache::Identity ResultCache::identity(const telemetry::JsonValue& root) {
  Identity id;
  const telemetry::JsonValue* side = root.find("x_kop_cache");
  if (side != nullptr && side->is_object()) {
    id.sidecar = side;
    const telemetry::JsonValue* point = side->find("point");
    if (point != nullptr && point->is_string()) id.point = &point->string;
    const telemetry::JsonValue* fp = side->find("fingerprint");
    if (fp != nullptr && fp->is_string()) id.fingerprint = &fp->string;
  }
  const telemetry::JsonValue* version = root.find("version");
  if (version != nullptr && version->is_number()) {
    id.schema_version = static_cast<int>(version->number);
  }
  return id;
}

bool ResultCache::load(const PointSpec& spec, PointResult* out) {
  const std::string path = entry_path(spec);
  std::string text;
  if (!read_file(path, &text)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    return false;
  }
  if (!decode(text, spec, out)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    ++stats_.corrupt;
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.hits;
  return true;
}

void ResultCache::store(const PointSpec& spec, const PointResult& result) {
  // An unwritable cache degrades to a miss next run.
  if (!publish_file(entry_path(spec), encode(spec, result))) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.stores;
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace kop::harness::jobs

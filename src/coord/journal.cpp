#include "coord/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "coord/proto.hpp"

namespace kop::coord {

namespace {

// Local FNV-1a 64 so the coord layer stays below the harness (mirrors
// jobs::fnv1a64 -- the checksum is a detector, not a cross-layer key).
std::uint64_t fnv1a64(const char* data, std::size_t n) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

bool needs_escape(char c) {
  return c == ' ' || c == '%' || c == '!' ||
         static_cast<unsigned char>(c) < 0x21 ||
         static_cast<unsigned char>(c) > 0x7e;
}

// Percent-escape a field to one space-free token.  Empty encodes as
// "-" (and a literal leading '-' is escaped so the forms never collide).
std::string escape_field(const std::string& s) {
  if (s.empty()) return "-";
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (needs_escape(c) || (i == 0 && c == '-')) {
      const unsigned char u = static_cast<unsigned char>(c);
      out += '%';
      out += digits[u >> 4];
      out += digits[u & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

bool unescape_field(const std::string& s, std::string* out) {
  if (s == "-") {
    out->clear();
    return true;
  }
  out->clear();
  out->reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      *out += s[i];
      continue;
    }
    auto hex = [](char c, int* v) {
      if (c >= '0' && c <= '9') *v = c - '0';
      else if (c >= 'a' && c <= 'f') *v = c - 'a' + 10;
      else return false;
      return true;
    };
    int hi = 0, lo = 0;
    if (i + 2 >= s.size() || !hex(s[i + 1], &hi) || !hex(s[i + 2], &lo)) {
      return false;
    }
    *out += static_cast<char>((hi << 4) | lo);
    i += 2;
  }
  return true;
}

}  // namespace

std::string encode_record(const JournalRecord& rec) {
  std::string body;
  switch (rec.type) {
    case JournalRecord::Type::kRegister:
      body = "R " + to_hex16(rec.hash) + " " + escape_field(rec.entry) + " " +
             escape_field(rec.payload) + " " + escape_field(rec.label);
      break;
    case JournalRecord::Type::kDone:
      body = "D " + to_hex16(rec.hash);
      break;
  }
  return body + " !" + to_hex16(fnv1a64(body.data(), body.size()));
}

bool decode_record(const std::string& line, JournalRecord* out,
                   std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const std::size_t bang = line.rfind(" !");
  if (bang == std::string::npos) return fail("missing checksum");
  const std::string body = line.substr(0, bang);
  std::uint64_t want = 0;
  if (!parse_hex16(line.substr(bang + 2), &want)) {
    return fail("malformed checksum");
  }
  if (fnv1a64(body.data(), body.size()) != want) {
    return fail("checksum mismatch");
  }
  const std::vector<std::string> t = split_tokens(body);
  if (t.empty() || t[0].size() != 1) return fail("missing record type");
  JournalRecord rec;
  switch (t[0][0]) {
    case 'R':
      if (t.size() != 5 || !parse_hex16(t[1], &rec.hash) ||
          !unescape_field(t[2], &rec.entry) ||
          !unescape_field(t[3], &rec.payload) ||
          !unescape_field(t[4], &rec.label)) {
        return fail("malformed R record");
      }
      rec.type = JournalRecord::Type::kRegister;
      break;
    case 'D':
      if (t.size() != 2 || !parse_hex16(t[1], &rec.hash)) {
        return fail("malformed D record");
      }
      rec.type = JournalRecord::Type::kDone;
      break;
    default:
      return fail(std::string("unknown record type '") + t[0] + "'");
  }
  *out = rec;
  return true;
}

bool replay_journal(const std::string& path,
                    const std::function<void(const JournalRecord&)>& fn,
                    ReplayStats* stats, std::string* error) {
  ReplayStats local;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // No file yet: a journal that was never written is a valid empty
    // journal (first boot on a fresh --journal path).
    if (stats != nullptr) *stats = local;
    return true;
  }
  std::ostringstream raw;
  raw << in.rdbuf();
  const std::string data = raw.str();
  std::size_t start = 0;
  std::size_t line_no = 0;
  while (start < data.size()) {
    const std::size_t nl = data.find('\n', start);
    if (nl == std::string::npos) {
      // Torn tail: bytes past the last terminator are a crash artifact,
      // not corruption.  Drop and report.
      local.truncated_bytes = data.size() - start;
      break;
    }
    ++line_no;
    const std::string line = data.substr(start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;
    JournalRecord rec;
    std::string why;
    if (!decode_record(line, &rec, &why)) {
      if (stats != nullptr) *stats = local;
      if (error != nullptr) {
        *error = path + ":" + std::to_string(line_no) + ": " + why;
      }
      return false;
    }
    ++local.records;
    fn(rec);
  }
  if (stats != nullptr) *stats = local;
  return true;
}

Journal::Journal(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("coord: cannot open journal " + path_ + ": " +
                             std::strerror(errno));
  }
}

Journal::~Journal() {
  if (fd_ >= 0) {
    try {
      commit();
    } catch (...) {
      // Destructor: the daemon is going down anyway; the tail becomes a
      // torn record at worst, which replay tolerates.
    }
    ::close(fd_);
  }
}

void Journal::append(const JournalRecord& rec) {
  pending_ += encode_record(rec);
  pending_ += '\n';
}

void Journal::commit() {
  if (pending_.empty()) return;
  std::size_t off = 0;
  while (off < pending_.size()) {
    const ssize_t n =
        ::write(fd_, pending_.data() + off, pending_.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("coord: journal write failed: " +
                               std::string(std::strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }
  pending_.clear();
  if (::fsync(fd_) != 0) {
    throw std::runtime_error("coord: journal fsync failed: " +
                             std::string(std::strerror(errno)));
  }
}

}  // namespace kop::coord

#include "coord/proto.hpp"

namespace kop::coord {

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < line.size()) {
    const std::size_t sp = line.find(' ', start);
    const std::size_t end = sp == std::string::npos ? line.size() : sp;
    if (end > start) out.push_back(line.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

bool parse_hex16(const std::string& s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = v;
  return true;
}

std::string to_hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

namespace {

// Worker ids travel unquoted; keep them to one safe token.
bool valid_worker_id(const std::string& s) {
  if (s.empty() || s.size() > 128) return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.' || c == ':' || c == '@';
    if (!ok) return false;
  }
  return true;
}

Request invalid(const std::string& why) {
  Request r;
  r.error = why;
  return r;
}

}  // namespace

Request parse_request(const std::string& line) {
  if (line.size() > 4096) return invalid("line too long");
  const std::vector<std::string> t = split_tokens(line);
  if (t.empty()) return invalid("empty line");
  Request r;
  const std::string& verb = t[0];

  auto want_worker = [&](std::size_t argc) -> bool {
    if (t.size() != argc) return false;
    if (!valid_worker_id(t[1])) return false;
    r.worker = t[1];
    return true;
  };

  if (verb == "HELLO") {
    if (!want_worker(2)) return invalid("usage: HELLO <worker>");
    r.verb = Request::Verb::kHello;
  } else if (verb == "NEXT") {
    if (!want_worker(2)) return invalid("usage: NEXT <worker>");
    r.verb = Request::Verb::kNext;
  } else if (verb == "LEASE") {
    if (t.size() != 3 && t.size() != 4) {
      return invalid("usage: LEASE <worker> <hash> [entry]");
    }
    if (!valid_worker_id(t[1]) || !parse_hex16(t[2], &r.hash)) {
      return invalid("usage: LEASE <worker> <hash> [entry]");
    }
    r.worker = t[1];
    if (t.size() == 4) r.entry = t[3];
    r.verb = Request::Verb::kLease;
  } else if (verb == "DONE") {
    if (t.size() != 4 || !valid_worker_id(t[1]) ||
        !parse_hex16(t[2], &r.lease_id) || !parse_hex16(t[3], &r.hash)) {
      return invalid("usage: DONE <worker> <lease-id> <hash>");
    }
    r.worker = t[1];
    r.verb = Request::Verb::kDone;
  } else if (verb == "PING") {
    if (!want_worker(2)) return invalid("usage: PING <worker>");
    r.verb = Request::Verb::kPing;
  } else if (verb == "BYE") {
    if (!want_worker(2)) return invalid("usage: BYE <worker>");
    r.verb = Request::Verb::kBye;
  } else if (verb == "GET") {
    if (t.size() != 2 || !parse_hex16(t[1], &r.hash)) {
      return invalid("usage: GET <hash>");
    }
    r.verb = Request::Verb::kGet;
  } else if (verb == "MGET") {
    if (t.size() < 2) return invalid("usage: MGET <hash>...");
    if (t.size() - 1 > kMgetMaxHashes) {
      return invalid("MGET batch too large (max " +
                     std::to_string(kMgetMaxHashes) + ")");
    }
    r.hashes.reserve(t.size() - 1);
    for (std::size_t i = 1; i < t.size(); ++i) {
      std::uint64_t h = 0;
      if (!parse_hex16(t[i], &h)) return invalid("usage: MGET <hash>...");
      r.hashes.push_back(h);
    }
    r.verb = Request::Verb::kMget;
  } else if (verb == "STATS") {
    if (t.size() != 1) return invalid("usage: STATS");
    r.verb = Request::Verb::kStats;
  } else if (verb == "SHUTDOWN") {
    if (t.size() != 1) return invalid("usage: SHUTDOWN");
    r.verb = Request::Verb::kShutdown;
  } else {
    return invalid("unknown verb " + verb);
  }
  return r;
}

bool parse_address(const std::string& s, Address* out, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (s.empty()) return fail("empty coordinator address");
  const std::size_t colon = s.rfind(':');
  if (s.find('/') != std::string::npos || colon == std::string::npos) {
    out->kind = Address::Kind::kUnix;
    out->path = s;
    out->host.clear();
    out->port = 0;
    return true;
  }
  const std::string host = s.substr(0, colon);
  const std::string port_str = s.substr(colon + 1);
  if (host.empty()) return fail("tcp address '" + s + "' has no host");
  if (port_str.empty()) return fail("tcp address '" + s + "' has no port");
  long port = 0;
  for (char c : port_str) {
    if (c < '0' || c > '9') {
      return fail("tcp address '" + s + "' has a non-numeric port");
    }
    port = port * 10 + (c - '0');
    if (port > 65535) return fail("tcp address '" + s + "' port out of range");
  }
  out->kind = Address::Kind::kTcp;
  out->host = host;
  out->port = static_cast<int>(port);
  out->path.clear();
  return true;
}

}  // namespace kop::coord
